// Command pythia-serve runs Pythia as an HTTP prediction service: it trains
// (or loads) models for the requested DSB templates, then answers page-set
// predictions for JSON query specifications — the deployment shape a real
// integration would use, with training offline and inference served from
// persisted models.
//
//	pythia-serve -templates t91 -sf 20 -n 60 -addr :8080 &
//	curl -s localhost:8080/v1/predict -d '{"fact":"catalog_returns", ...}'
//	curl -s localhost:8080/metrics
//
// Endpoints (see internal/serve for the full contract):
//
//	POST /v1/predict          QuerySpec JSON → predicted pages + matched workload
//	POST /v1/explain          QuerySpec JSON → plan display + Algorithm 2 tokens
//	GET  /v1/healthz          liveness + model inventory
//	POST /v1/admin/reload     zero-downtime model swap from the -snapshot file
//	GET  /metrics             Prometheus text exposition
//	GET  /stats               JSON statistics snapshot
//
// With -snapshot the trained system is persisted to (or, when the file
// already exists, loaded from) the given path; SIGHUP — or POST
// /v1/admin/reload — swaps the serving models from that snapshot without
// dropping a request.
//
// Load is admitted in one place, the model's bounded work queue
// (-queue-depth): a predict the full queue refuses answers 503. A model error
// answers that one request with the degraded fallback and is counted; it
// changes no state, so there is nothing to tune.
// README.md lists every flag, and flags_test.go keeps that list honest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/fault"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/serve"
)

// config is everything the command line sets: the training inputs, the
// serve.Options the server is built from, and the process-level switches.
type config struct {
	addr, templates string
	sf, n           int
	seed            uint64
	opts            serve.Options
	shutdownGrace   time.Duration
	faultRate       float64
	faultSeed       uint64
	pprofAddr       string
}

// flags registers every pythia-serve flag on fs, bound to the returned
// config. main passes flag.CommandLine; the README test builds the set
// without running main.
func flags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.templates, "templates", "t91", "comma-separated DSB templates to train")
	fs.IntVar(&c.sf, "sf", 20, "scale factor")
	fs.IntVar(&c.n, "n", 60, "training instances per template")
	fs.Uint64Var(&c.seed, "seed", 7, "seed")

	fs.DurationVar(&c.opts.RequestTimeout, "request-timeout", 5*time.Second, "per-request inference budget")
	fs.Int64Var(&c.opts.MaxBodyBytes, "max-body", 1<<20, "request body cap in bytes")
	fs.DurationVar(&c.shutdownGrace, "shutdown-grace", 10*time.Second, "drain deadline after SIGINT/SIGTERM")
	fs.IntVar(&c.opts.CacheEntries, "cache-entries", 4096, "plan-fingerprint prediction cache capacity (negative disables)")
	fs.IntVar(&c.opts.QueueDepth, "queue-depth", 32, "bounded work queue, the one admission point: a predict the full queue refuses answers 503")
	fs.StringVar(&c.opts.SnapshotPath, "snapshot", "", "model snapshot path: loaded instead of training when it exists, written after training otherwise; SIGHUP and /v1/admin/reload swap from it (empty = off)")
	fs.Float64Var(&c.faultRate, "fault-rate", 0, "probability a request's model path faults and answers the model_error fallback, for chaos drills (0 = off)")
	fs.Uint64Var(&c.faultSeed, "fault-seed", 1, "fault-injection PRNG seed")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this loopback address, e.g. localhost:6060 (empty = off)")
	return c
}

// validate checks everything that needs no training — the options, -n, -sf,
// -templates, -fault-rate and -pprof — and returns the parsed template list.
// main runs it first: a rejected value, an unknown template or a bad address
// should fail in milliseconds, not after minutes of model building.
func validate(c *config) ([]string, error) {
	if _, err := c.opts.Normalize(); err != nil {
		return nil, err
	}
	if c.n < 1 {
		return nil, fmt.Errorf("-n %d: want at least one training instance per template", c.n)
	}
	if c.sf < 1 {
		return nil, fmt.Errorf("-sf %d: want a scale factor of at least 1", c.sf)
	}
	templates, err := dsb.ParseTemplates(c.templates)
	if err != nil {
		return nil, fmt.Errorf("-templates: %w", err)
	}
	if err := (fault.Plan{ServeRate: c.faultRate}).Validate(); err != nil {
		return nil, fmt.Errorf("-fault-rate: %w", err)
	}
	// The profiling endpoints expose heap contents and symbol tables, so they
	// run on a separate server that must be bound to loopback — never on the
	// public listener.
	if c.pprofAddr != "" {
		host, _, err := net.SplitHostPort(c.pprofAddr)
		if err != nil {
			return nil, fmt.Errorf("-pprof %q: %w", c.pprofAddr, err)
		}
		if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
			return nil, fmt.Errorf("-pprof must bind a loopback address, got %q", c.pprofAddr)
		}
	}
	return templates, nil
}

func main() {
	c := flags(flag.CommandLine)
	flag.Parse()
	templates, err := validate(c)
	if err != nil {
		log.Fatalf("pythia-serve: %v", err)
	}

	if c.faultRate > 0 {
		c.opts.Fault = fault.New(fault.Plan{ServeRate: c.faultRate}, c.faultSeed)
		log.Printf("fault injection armed: serve=%g (seed %d)", c.faultRate, c.faultSeed)
	}

	gen := dsb.NewGenerator(dsb.Config{ScaleFactor: c.sf, Seed: c.seed})
	metrics := serve.NewMetrics(nil)
	cfg := corepythia.DefaultConfig()
	cfg.Recorder = metrics.Events()
	cfg, err = cfg.Normalize()
	if err != nil {
		log.Fatalf("pythia-serve: invalid config: %v", err)
	}
	sys := corepythia.New(gen.DB(), cfg)
	if c.opts.SnapshotPath != "" && fileExists(c.opts.SnapshotPath) {
		log.Printf("loading snapshot %s (skipping training)...", c.opts.SnapshotPath)
		loaded, err := loadSnapshot(gen, cfg, c.opts.SnapshotPath)
		if err != nil {
			log.Fatalf("pythia-serve: loading -snapshot: %v", err)
		}
		sys = loaded
	} else {
		for _, tpl := range templates {
			log.Printf("training %s (%d instances)...", tpl, c.n)
			start := time.Now()
			w := gen.Workload(tpl, c.n, c.seed+1)
			sys.Train(tpl, w.Instances)
			log.Printf("trained %s in %s", tpl, time.Since(start).Round(time.Second))
		}
		if c.opts.SnapshotPath != "" {
			if err := saveSnapshot(sys, c.opts.SnapshotPath); err != nil {
				log.Fatalf("pythia-serve: writing -snapshot: %v", err)
			}
			log.Printf("wrote snapshot %s", c.opts.SnapshotPath)
		}
	}

	srv, err := serve.New(gen.DB(), sys, metrics, c.opts)
	if err != nil {
		log.Fatalf("pythia-serve: %v", err)
	}
	// Log the resolved effective options (after Options.Normalize fills in the
	// defaults) so a deployment's actual protections and fast-path
	// configuration are visible in its logs.
	eff := srv.Options()
	log.Printf("effective options: request-timeout=%s max-body=%d cache-entries=%d queue-depth=%d snapshot=%q",
		eff.RequestTimeout, eff.MaxBodyBytes, eff.CacheEntries, eff.QueueDepth, eff.SnapshotPath)
	httpSrv := &http.Server{Addr: c.addr, Handler: srv.Handler()}

	// The shutdown context is created before any helper goroutine spawns so
	// each of them can bound itself on ctx.Done(); it is consumed by the
	// graceful-shutdown select at the bottom.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// SIGHUP is the operator's model-roll signal: swap the serving models
	// from the -snapshot file without dropping a request. The listener exits
	// on shutdown rather than ranging over the signal channel forever — a
	// reload must not start while the server is draining.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
			}
			log.Print("SIGHUP: reloading model snapshot...")
			st, err := srv.ReloadSnapshot()
			if err != nil {
				log.Printf("reload failed (still serving the old generation): %v", err)
				continue
			}
			log.Printf("reloaded: generation %d", st.Generation)
		}
	}()

	if c.pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		//pythia:goleak-ok debug listener is deliberately process-lifetime; it holds no model state and dies with the process
		go func() {
			log.Printf("pprof listening on %s", c.pprofAddr)
			if err := http.ListenAndServe(c.pprofAddr, pmux); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	// Graceful shutdown: on SIGINT/SIGTERM flip healthz to draining (so load
	// balancers stop routing here), then let in-flight requests finish under
	// the grace deadline before exiting.
	errc := make(chan error, 1)
	//pythia:goleak-ok exits when httpSrv.Shutdown below makes ListenAndServe return; errc is buffered so the send never blocks
	go func() {
		log.Printf("pythia-serve listening on %s", c.addr)
		errc <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		srv.SetDraining(true)
		log.Printf("signal received; draining for up to %s", c.shutdownGrace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), c.shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("shutdown: %v", err)
		}
		log.Print("pythia-serve stopped")
	}
}

func fileExists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && !info.IsDir()
}

// loadSnapshot decodes a persisted trained system against the generator's
// catalog.
func loadSnapshot(gen *dsb.Generator, cfg corepythia.Config, path string) (*corepythia.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return corepythia.LoadSystem(gen.DB(), cfg, f)
}

// saveSnapshot persists the trained system for later -snapshot starts and
// SIGHUP / admin reloads. SaveFile is atomic (temp + fsync + rename), so a
// crash mid-save can never tear a snapshot a reload would then trip over.
func saveSnapshot(sys *corepythia.System, path string) error {
	return sys.SaveFile(path)
}
