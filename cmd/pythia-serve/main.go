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
//	GET  /v1/admin/replicas   replica topology
//	GET  /metrics             Prometheus text exposition
//	GET  /stats               JSON statistics snapshot
//
// With -replicas N the trained system is cloned into N independent model
// replicas behind a consistent-hash router (see internal/serve's Pool).
// With -snapshot the trained system is persisted to (or, when the file
// already exists, loaded from) the given path; SIGHUP — or POST
// /v1/admin/reload — swaps the serving models from that snapshot without
// dropping a request.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/fault"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/serve"
	"github.com/pythia-db/pythia/internal/span"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		templates = flag.String("templates", "t91", "comma-separated DSB templates to train")
		sf        = flag.Int("sf", 20, "scale factor")
		n         = flag.Int("n", 60, "training instances per template")
		seed      = flag.Uint64("seed", 7, "seed")

		reqTimeout    = flag.Duration("request-timeout", 5*time.Second, "per-request inference budget (negative disables)")
		maxInflight   = flag.Int("max-inflight", 64, "concurrent model requests before load shedding (negative disables)")
		maxBody       = flag.Int64("max-body", 1<<20, "request body cap in bytes (negative disables)")
		shutdownGrace = flag.Duration("shutdown-grace", 10*time.Second, "drain deadline after SIGINT/SIGTERM")
		cacheEntries  = flag.Int("cache-entries", 4096, "plan-fingerprint prediction cache capacity (negative disables)")
		replicas      = flag.Int("replicas", 1, "independent model replicas behind the consistent-hash router")
		queueDepth    = flag.Int("queue-depth", 32, "per-replica bounded work queue (negative disables)")
		snapshot      = flag.String("snapshot", "", "model snapshot path: loaded instead of training when it exists, written after training otherwise; SIGHUP and /v1/admin/reload swap from it (empty = off)")
		quarThreshold = flag.Int("quarantine-threshold", 5, "sliding-window model-path failures that quarantine a replica (negative disables health tracking)")
		quarBackoff   = flag.Duration("quarantine-backoff", time.Second, "initial probe backoff for a quarantined replica (doubles per failed probe, capped at 16x)")
		quarProbes    = flag.Int("quarantine-probes", 3, "consecutive probe successes that re-admit a quarantined replica")
		maxFailovers  = flag.Int("max-failovers", 2, "ring successors a request may fail over to past an unhealthy replica (negative disables failover)")
		faultPlan     = flag.String("fault-plan", "", "fault-injection plan for chaos drills, e.g. serve=0.2 (empty = none)")
		faultSeed     = flag.Uint64("fault-seed", 1, "fault-injection PRNG seed")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this loopback address, e.g. localhost:6060 (empty = off)")
		traceOut      = flag.String("trace-out", "", "on shutdown, write HTTP request spans as Chrome trace-event JSON to this file (empty = off)")
	)
	flag.Parse()

	// Validate -pprof before training: a bad address should fail in
	// milliseconds, not after minutes of model building. The profiling
	// endpoints expose heap contents and symbol tables, so they run on a
	// separate server that must be bound to loopback — never on the public
	// listener.
	if *pprofAddr != "" {
		host, _, err := net.SplitHostPort(*pprofAddr)
		if err != nil {
			log.Fatalf("pythia-serve: -pprof %q: %v", *pprofAddr, err)
		}
		if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
			log.Fatalf("pythia-serve: -pprof must bind a loopback address, got %q", *pprofAddr)
		}
	}

	plan, err := fault.ParsePlan(*faultPlan)
	if err != nil {
		log.Fatalf("pythia-serve: %v", err)
	}
	var inj *fault.Injector
	if !plan.IsZero() {
		inj = fault.New(plan, *faultSeed)
		log.Printf("fault injection armed: %s (seed %d)", plan, *faultSeed)
	}

	gen := dsb.NewGenerator(dsb.Config{ScaleFactor: *sf, Seed: *seed})
	metrics := serve.NewMetrics(nil)
	var tracer *span.Sync
	if *traceOut != "" {
		tracer = span.NewSync()
		metrics.SetTracer(tracer)
	}
	cfg := corepythia.DefaultConfig()
	cfg.Recorder = metrics.Events()
	cfg, err = cfg.Normalize()
	if err != nil {
		log.Fatalf("pythia-serve: invalid config: %v", err)
	}
	sys := corepythia.New(gen.DB(), cfg)
	if *snapshot != "" && fileExists(*snapshot) {
		log.Printf("loading snapshot %s (skipping training)...", *snapshot)
		loaded, err := loadSnapshot(gen, cfg, *snapshot)
		if err != nil {
			log.Fatalf("pythia-serve: loading -snapshot: %v", err)
		}
		sys = loaded
	} else {
		for _, tpl := range strings.Split(*templates, ",") {
			tpl = strings.TrimSpace(tpl)
			if tpl == "" {
				continue
			}
			log.Printf("training %s (%d instances)...", tpl, *n)
			start := time.Now()
			w := gen.Workload(tpl, *n, *seed+1)
			sys.Train(tpl, w.Instances)
			log.Printf("trained %s in %s", tpl, time.Since(start).Round(time.Second))
		}
		if *snapshot != "" {
			if err := saveSnapshot(sys, *snapshot); err != nil {
				log.Fatalf("pythia-serve: writing -snapshot: %v", err)
			}
			log.Printf("wrote snapshot %s", *snapshot)
		}
	}

	srv, err := serve.New(gen.DB(), sys, metrics, serve.Options{
		RequestTimeout:      *reqTimeout,
		MaxInFlight:         *maxInflight,
		MaxBodyBytes:        *maxBody,
		Fault:               inj,
		CacheEntries:        *cacheEntries,
		Replicas:            *replicas,
		QueueDepth:          *queueDepth,
		SnapshotPath:        *snapshot,
		QuarantineThreshold: *quarThreshold,
		QuarantineBackoff:   *quarBackoff,
		QuarantineProbes:    *quarProbes,
		MaxFailovers:        *maxFailovers,
	})
	if err != nil {
		log.Fatalf("pythia-serve: %v", err)
	}
	// Log the resolved effective options (after Options.Normalize applies the
	// zero=default / negative=disable convention) so a deployment's actual
	// protections, fast-path, and topology configuration are visible in its
	// logs.
	eff := srv.Options()
	log.Printf("effective options: request-timeout=%s max-inflight=%d max-body=%d cache-entries=%d replicas=%d queue-depth=%d snapshot=%q quarantine-threshold=%d quarantine-backoff=%s quarantine-probes=%d max-failovers=%d",
		eff.RequestTimeout, eff.MaxInFlight, eff.MaxBodyBytes,
		eff.CacheEntries, eff.Replicas, eff.QueueDepth, eff.SnapshotPath,
		eff.QuarantineThreshold, eff.QuarantineBackoff, eff.QuarantineProbes,
		eff.MaxFailovers)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

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
			st, err := srv.ReloadSnapshot("")
			if err != nil {
				log.Printf("reload failed (still serving the old generation): %v", err)
				continue
			}
			log.Printf("reloaded: generation %d across %d replicas", st.Generation, len(st.Replicas))
		}
	}()

	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		//pythia:goleak-ok debug listener is deliberately process-lifetime; it holds no model state and dies with the process
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
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
		log.Printf("pythia-serve listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		srv.SetDraining(true)
		log.Printf("signal received; draining for up to %s", *shutdownGrace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("shutdown: %v", err)
		}
		if tracer != nil {
			if err := writeTrace(*traceOut, tracer.Snapshot()); err != nil {
				log.Printf("trace-out: %v", err)
			} else {
				log.Printf("wrote %s", *traceOut)
			}
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

// writeTrace dumps the recorded HTTP spans as Perfetto-loadable JSON.
func writeTrace(path string, spans []span.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := span.ExportChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
