// Command pythia-load is a closed-loop load generator for the pythia-serve
// HTTP surface. It drives POST /v1/predict at a fixed concurrency (and,
// optionally, a paced QPS target) over a corpus of planned DSB queries with a
// configurable repeat ratio over a hot set of four plans — the knob that
// moves the server between cache-hit-heavy steady state and cache-miss-heavy
// inference load — and reports latency quantiles, error/shed counts, the
// answers degraded by a model error, and the server's own cache statistics as
// BENCH_load.json. Any non-2xx answer fails the run, and so does a run that
// completes no request.
//
// Two modes:
//
//   - Self-hosted (default): trains a model once, builds the serving stack
//     in-process and serves it over a real loopback TCP listener — the whole
//     HTTP path is on the clock. After the run the harness checks the
//     server's books on /stats against its own counts and against
//     themselves (BOOKS: lines):
//
//     pythia-load -sf 4 -n 64 -concurrency 8 -duration 10s
//
//   - Remote (-target): drives an already-running pythia-serve; the corpus
//     is built from the same -templates/-sf/-seed flags, which must match
//     the server's or every request falls back.
//
//     pythia-load -target http://localhost:8080 -duration 30s -qps 200
//
// With -swap-at F (self-hosted mode), the harness saves a model snapshot
// before the server starts, configures it as the server's snapshot path and
// POSTs /v1/admin/reload (an empty body) at fraction F of -duration,
// measuring the zero-downtime claim under its own sustained load. With
// -chaos-at F every inference faults from fraction F of -duration until
// -chaos-clear: the faults must reach no client as a non-2xx answer, at least
// one answer must be the "model_error" fallback, the client's count of those
// must equal the server's model_error events, and (when the fault clears) a
// request sent after the clear must get a model answer.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/metrics"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/serve"
	"github.com/pythia-db/pythia/internal/spec"
)

// hotSet is how many corpus plans -repeat draws from.
const hotSet = 4

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints the run's summary line to stdout
// and its progress to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pythia-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target      = fs.String("target", "", "base URL of a running pythia-serve (empty = self-hosted)")
		templates   = fs.String("templates", "t91", "comma-separated DSB templates for the corpus")
		sf          = fs.Int("sf", 4, "scale factor")
		n           = fs.Int("n", 24, "corpus instances per template")
		seed        = fs.Uint64("seed", 7, "seed")
		cacheFlag   = fs.Int("cache-entries", 0, "serve cache capacity in self-hosted mode (0 = default, negative disables)")
		qps         = fs.Float64("qps", 0, "paced request rate across all workers (0 = closed-loop unthrottled)")
		concurrency = fs.Int("concurrency", 8, "concurrent closed-loop workers")
		duration    = fs.Duration("duration", 10*time.Second, "load duration")
		repeat      = fs.Float64("repeat", 0, "probability a request re-sends one of the corpus's first four plans (0 = uniform over the corpus, i.e. cache-miss-heavy)")
		swapAt      = fs.Float64("swap-at", 0, "fraction of -duration after which to POST /v1/admin/reload (0 = no swap; self-hosted mode)")
		out         = fs.String("out", "BENCH_load.json", "report path")

		feedbackRate    = fs.Float64("feedback", 0, "probability a 2xx predict is followed by a POST /v1/feedback report with the corpus instance's true pages (0 = no feedback traffic)")
		maxMinPrecision = fs.Float64("max-min-precision", -1, "fail (exit nonzero) if the server's precision over every scored report falls below this floor (negative = no gate; implies -feedback 1 when -feedback is 0)")
		failOnAlarm     = fs.Bool("fail-on-drift-alarm", false, "fail (exit nonzero) if the run's last drift evaluation reads \"alarm\"")

		chaosAt    = fs.Float64("chaos-at", 0, "self-hosted chaos drill: fraction of -duration after which every inference faults (0 = off)")
		chaosClear = fs.Float64("chaos-clear", 0.6, "fraction of -duration after which the fault clears; a request sent after it must get a model answer (0 = never clears)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pythia-load: "+format+"\n", a...)
		return 1
	}

	// Every argument is checked before the corpus is built or a model
	// trained, so a bad one fails in milliseconds.
	templateList, err := dsb.ParseTemplates(*templates)
	switch {
	case err != nil:
		return fail("-templates: %v", err)
	case *n < 1:
		return fail("-n %d: want at least one instance per template", *n)
	case *sf < 1:
		return fail("-sf %d: want a scale factor of at least 1", *sf)
	case *duration <= 0:
		return fail("-duration %s: want a positive duration", *duration)
	case *qps < 0:
		return fail("-qps %g: want 0 (unthrottled) or a positive rate", *qps)
	case *concurrency < 1:
		return fail("-concurrency %d: want at least one worker", *concurrency)
	case !(*repeat >= 0 && *repeat <= 1):
		return fail("-repeat %g outside [0, 1]", *repeat)
	case !(*feedbackRate >= 0 && *feedbackRate <= 1):
		return fail("-feedback %g outside [0, 1]", *feedbackRate)
	case !(*swapAt >= 0 && *swapAt < 1):
		return fail("-swap-at %g outside [0, 1): the swap must fire while the load runs", *swapAt)
	case !(*chaosAt >= 0 && *chaosAt < 1):
		return fail("-chaos-at %g outside [0, 1): the fault must arm while the load runs", *chaosAt)
	case *chaosClear != 0 && !(*chaosClear > *chaosAt && *chaosClear < 1):
		return fail("-chaos-clear %g outside (-chaos-at %g, 1)", *chaosClear, *chaosAt)
	case *target != "" && (*swapAt > 0 || *chaosAt > 0 || *cacheFlag != 0):
		return fail("-swap-at, -chaos-at and -cache-entries need self-hosted mode (they save a snapshot, retarget the in-process fault injector and size its cache)")
	}
	if *maxMinPrecision >= 0 && *feedbackRate == 0 {
		// The precision gate reads the server's score over every feedback
		// report, which stays empty without feedback traffic — an ungated run
		// would always pass.
		*feedbackRate = 1
		logger.Printf("-max-min-precision set: defaulting -feedback to 1")
	}

	gen := dsb.NewGenerator(dsb.Config{ScaleFactor: *sf, Seed: *seed})
	corpus, err := buildCorpus(gen, templateList, *n, *seed)
	if err != nil {
		return fail("%v", err)
	}
	logger.Printf("corpus: %d requests across %s", len(corpus), *templates)

	var sys *corepythia.System
	if *target == "" {
		if sys, err = trainSystem(logger, gen, templateList, *n, *seed); err != nil {
			return fail("%v", err)
		}
	}

	res, err := runLoad(logger, loadConfig{
		target: *target, gen: gen, sys: sys,
		cacheEntries: *cacheFlag, corpus: corpus, qps: *qps, feedback: *feedbackRate,
		concurrency: *concurrency, duration: *duration,
		repeat: *repeat, swapAt: *swapAt, seed: *seed,
		chaosAt: *chaosAt, chaosClear: *chaosClear,
	})
	if err != nil {
		return fail("%v", err)
	}
	report := loadReport{
		Benchmark:   "pythia-load",
		Templates:   *templates,
		Corpus:      len(corpus),
		Concurrency: *concurrency,
		QPS:         *qps,
		Repeat:      *repeat,
		DurationSec: duration.Seconds(),
		loadResult:  res,
	}
	fmt.Fprintf(stdout, "%.0f req/s, p50=%.2fms p95=%.2fms p99=%.2fms, errors=%d (rate %.4f) shed=%d, cache-hit-rate=%.2f\n",
		res.ThroughputRPS, res.P50MS, res.P95MS, res.P99MS,
		res.Errors, res.ErrorRate, res.Shed, res.CacheHitRate)
	if res.Feedbacks > 0 {
		fmt.Fprintf(stdout, "quality feedback=%d (errors %d) precision=%.4f recall=%.4f drift=%s (score %.4f)\n",
			res.Feedbacks, res.FeedbackErrors, res.Precision, res.Recall, res.DriftState, res.DriftScore)
	}

	var breaches []string
	breach := func(format string, a ...any) { breaches = append(breaches, fmt.Sprintf(format, a...)) }
	if res.Requests == 0 {
		breach("no predict request completed")
	}
	if res.Errors > 0 {
		breach("%d requests answered non-2xx", res.Errors)
	}
	if *target == "" {
		// The server's books against the harness's own: every 200 the client
		// saw is one {predict, 200} row count, every 503 one requests_shed,
		// every feedback answered 200 one quality.scored, every model_error
		// fallback one model_error event. Then the server's books against
		// themselves: every predict request is one cache hit, inference,
		// fallback, shed or other non-2xx answer, and every feedback post one
		// scored report or 4xx answer.
		for _, b := range []struct {
			what        string
			left, right uint64
		}{
			{"predict 200s vs the {predict, 200} request row", res.StatusCounts["200"], res.serverPredict200},
			{"predict 503s vs requests_shed", res.StatusCounts["503"], res.Shed},
			{"feedback 200s vs quality.scored", res.Feedbacks, res.QualityScored},
			{"model_error answers vs events.model_error", res.ModelErrors, res.serverModelErrors},
			{"predict requests vs predcache hits + inference_run + fallbacks + requests_shed + other non-2xx", res.serverPredicts, res.serverPredictOutcomes},
			{"feedback posts vs quality.scored + feedback 4xx", res.serverFeedbacks, res.QualityScored + res.serverFeedback4xx},
		} {
			if b.left != b.right {
				fmt.Fprintf(stdout, "BOOKS: %s: %d vs %d\n", b.what, b.left, b.right)
				breach("the server's books do not balance (see BOOKS: lines)")
			}
		}
	}
	if *chaosAt > 0 && res.ModelErrors == 0 {
		breach("chaos drill: no answer carried the model_error fallback while every inference faulted")
	}
	if *chaosAt > 0 && *chaosClear > 0 && res.modelAfterClear == 0 {
		breach("chaos drill: no request sent after the fault cleared got a model answer")
	}
	if *maxMinPrecision >= 0 {
		if res.QualityScored == 0 {
			breach("precision gate set but no feedback was scored")
		} else if res.Precision < *maxMinPrecision {
			breach("precision %.4f < -max-min-precision %g", res.Precision, *maxMinPrecision)
		}
	}
	if *failOnAlarm && res.DriftState == "alarm" {
		breach("run ended in drift alarm (score %.4f)", res.DriftScore)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fail("%v", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return fail("%v", err)
	}
	logger.Printf("wrote %s", *out)
	for _, b := range breaches {
		fmt.Fprintf(stderr, "pythia-load: GATE BREACH: %s\n", b)
	}
	if len(breaches) > 0 {
		return 1
	}
	return 0
}

// loadReport is the whole BENCH_load.json document: the run's configuration
// and its one result.
type loadReport struct {
	Benchmark   string  `json:"benchmark"`
	Templates   string  `json:"templates"`
	Corpus      int     `json:"corpus_requests"`
	Concurrency int     `json:"concurrency"`
	QPS         float64 `json:"qps_target"`
	Repeat      float64 `json:"repeat_ratio"`
	DurationSec float64 `json:"duration_seconds"`
	loadResult
}

// loadResult is what one run measured and scraped.
type loadResult struct {
	Requests      uint64            `json:"requests"`
	Errors        uint64            `json:"errors"`
	ErrorRate     float64           `json:"error_rate"`
	Seconds       float64           `json:"seconds"`
	ThroughputRPS float64           `json:"throughput_rps"`
	P50MS         float64           `json:"p50_ms"`
	P95MS         float64           `json:"p95_ms"`
	P99MS         float64           `json:"p99_ms"`
	StatusCounts  map[string]uint64 `json:"status_counts"`
	CacheHitRate  float64           `json:"cache_hit_rate"`
	CacheHits     uint64            `json:"cache_hits"`
	CacheMisses   uint64            `json:"cache_misses"`
	Shed          uint64            `json:"requests_shed"`
	Timeouts      uint64            `json:"inference_timeouts"`
	ModelErrors   uint64            `json:"model_errors"`
	Generation    uint64            `json:"generation"`
	Swaps         uint64            `json:"swaps"`
	SwapMS        float64           `json:"swap_ms,omitempty"`

	// Quality and drift snapshot scraped from /stats at the end of the run:
	// the server's own score over every -feedback ground-truth report, and
	// the level and score of the last drift evaluation.
	Feedbacks      uint64  `json:"feedbacks_sent"`
	FeedbackErrors uint64  `json:"feedback_errors"`
	QualityScored  uint64  `json:"quality_scored"`
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
	WastedRatio    float64 `json:"wasted_ratio"`
	DriftState     string  `json:"drift_state"`
	DriftScore     float64 `json:"drift_score"`
	BaselineHash   string  `json:"baseline_hash,omitempty"`

	// serverPredict200 is /stats' {predict, 200} request count and
	// serverModelErrors its events.model_error, for the books check; so are
	// its predict and feedback request totals, the outcomes that answer the
	// predicts and the feedback 4xx count.
	serverPredict200, serverModelErrors   uint64
	serverPredicts, serverPredictOutcomes uint64
	serverFeedbacks, serverFeedback4xx    uint64
	// modelAfterClear counts requests sent after the chaos fault cleared
	// that got a model answer (fallback false).
	modelAfterClear uint64
}

type loadConfig struct {
	target       string
	gen          *dsb.Generator
	sys          *corepythia.System
	cacheEntries int
	corpus       []corpusEntry
	qps          float64
	feedback     float64
	concurrency  int
	duration     time.Duration
	repeat       float64
	swapAt       float64
	seed         uint64
	chaosAt      float64
	chaosClear   float64
}

// runLoad drives the run: build (or point at) a server, run the closed loop
// for the duration, scrape /stats, and assemble the result.
func runLoad(logger *log.Logger, pc loadConfig) (loadResult, error) {
	res := loadResult{StatusCounts: map[string]uint64{}}
	base := pc.target
	var snapPath string
	var srv *serve.Server // self-hosted handle; chaos drills retarget its injector
	if pc.target == "" {
		if pc.swapAt > 0 {
			f, err := os.CreateTemp("", "pythia-load-snap-*.bin")
			if err != nil {
				return res, err
			}
			snapPath = f.Name()
			defer os.Remove(snapPath)
			if err := pc.sys.Save(f); err != nil {
				f.Close()
				return res, err
			}
			if err := f.Close(); err != nil {
				return res, err
			}
		}
		var err error
		srv, err = serve.New(pc.gen.DB(), pc.sys, serve.NewMetrics(nil),
			serve.Options{CacheEntries: pc.cacheEntries, SnapshotPath: snapPath})
		if err != nil {
			return res, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		//pythia:goleak-ok Serve returns when the deferred httpSrv.Close below tears the listener down at the end of the run
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		base = "http://" + ln.Addr().String()
	}

	client := &http.Client{Timeout: 30 * time.Second}
	url := base + "/v1/predict"
	// Each worker appends its request latencies (ms) to its own slice; the
	// quantiles come from the merged, sorted samples.
	latencies := make([][]float64, pc.concurrency)
	var (
		requests, errCount      atomic.Uint64
		feedbacks, feedbackErrs atomic.Uint64
		modelErrs, afterClear   atomic.Uint64
		statusMu                sync.Mutex
		// clearedAt is when the chaos fault cleared (Unix ns; 0 = not yet).
		clearedAt atomic.Int64
	)
	interval := time.Duration(0)
	if pc.qps > 0 {
		interval = time.Duration(float64(time.Second) / pc.qps)
	}
	hot := min(hotSet, len(pc.corpus))

	start := time.Now()
	deadline := start.Add(pc.duration)
	var slot atomic.Int64 // global pacing slot counter for the QPS target
	var wg sync.WaitGroup
	for g := 0; g < pc.concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Per-worker PRNG: fixed seed so corpora draws are reproducible,
			// offset so workers don't lockstep on the same plans.
			rng := rand.New(rand.NewSource(int64(pc.seed) + int64(g)*7919))
			for time.Now().Before(deadline) {
				if interval > 0 {
					// Paced mode: the next global slot's fire time.
					mine := slot.Add(1) - 1
					at := start.Add(time.Duration(mine) * interval)
					if wait := time.Until(at); wait > 0 {
						time.Sleep(wait)
					}
					if !time.Now().Before(deadline) {
						return
					}
				}
				var entry corpusEntry
				if pc.repeat > 0 && rng.Float64() < pc.repeat {
					entry = pc.corpus[rng.Intn(hot)]
				} else {
					entry = pc.corpus[rng.Intn(len(pc.corpus))]
				}
				wantFeedback := pc.feedback > 0 && rng.Float64() < pc.feedback
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(entry.body))
				requests.Add(1)
				if err != nil {
					errCount.Add(1)
					statusMu.Lock()
					res.StatusCounts["transport_error"]++
					statusMu.Unlock()
					continue
				}
				var predictionID string
				if resp.StatusCode == http.StatusOK {
					var pr struct {
						PredictionID string `json:"prediction_id"`
						Fallback     bool   `json:"fallback"`
						Degraded     string `json:"degraded"`
					}
					if json.NewDecoder(resp.Body).Decode(&pr) == nil {
						if wantFeedback {
							predictionID = pr.PredictionID
						}
						if pr.Degraded == "model_error" {
							modelErrs.Add(1)
						}
						if c := clearedAt.Load(); c != 0 && t0.UnixNano() > c && !pr.Fallback {
							afterClear.Add(1)
						}
					}
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				latencies[g] = append(latencies[g], float64(time.Since(t0))/float64(time.Millisecond))
				statusMu.Lock()
				res.StatusCounts[strconv.Itoa(resp.StatusCode)]++
				statusMu.Unlock()
				if resp.StatusCode < 200 || resp.StatusCode > 299 {
					errCount.Add(1)
				}
				// Close the ground-truth loop: report the instance's true
				// pages back as the "touched" set. Feedback traffic is
				// accounted separately from predict throughput.
				if predictionID != "" {
					if err := postFeedback(client, base, predictionID, entry.truth); err != nil {
						feedbackErrs.Add(1)
					} else {
						feedbacks.Add(1)
					}
				}
			}
		}(g)
	}

	// Chaos drill: every inference faults from chaosAt and (optionally)
	// stops faulting at chaosClear. A fault answers the model_error fallback
	// on that request, never an error, and nothing outlives the request: the
	// first request after the clear runs the model again.
	if pc.chaosAt > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(float64(pc.duration) * pc.chaosAt))
			srv.SetFault(fault.New(fault.Plan{ServeRate: 1}, pc.seed))
			logger.Print("chaos: every inference failing")
			if pc.chaosClear <= 0 {
				return
			}
			time.Sleep(time.Duration(float64(pc.duration) * (pc.chaosClear - pc.chaosAt)))
			srv.SetFault(nil)
			clearedAt.Store(time.Now().UnixNano())
			logger.Print("chaos: fault cleared")
		}()
	}

	if snapPath != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(float64(pc.duration) * pc.swapAt))
			t0 := time.Now()
			if err := postReload(client, base); err != nil {
				errCount.Add(1)
				statusMu.Lock()
				res.StatusCounts["reload_error"]++
				statusMu.Unlock()
				logger.Printf("mid-run reload failed: %v", err)
				return
			}
			swapMS := float64(time.Since(t0).Microseconds()) / 1000
			statusMu.Lock()
			res.SwapMS = swapMS
			statusMu.Unlock()
			logger.Printf("mid-run model swap completed in %.1fms", swapMS)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res.Requests = requests.Load()
	res.Errors = errCount.Load()
	res.Feedbacks = feedbacks.Load()
	res.FeedbackErrors = feedbackErrs.Load()
	res.ModelErrors = modelErrs.Load()
	res.modelAfterClear = afterClear.Load()
	if res.Requests > 0 {
		res.ErrorRate = float64(res.Errors) / float64(res.Requests)
	}
	res.Seconds = elapsed.Seconds()
	if res.Seconds > 0 {
		res.ThroughputRPS = float64(res.Requests) / res.Seconds
	}
	var all []float64
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Float64s(all)
	res.P50MS = metrics.Quantile(all, 0.50)
	res.P95MS = metrics.Quantile(all, 0.95)
	res.P99MS = metrics.Quantile(all, 0.99)
	if err := scrapeStats(client, base, &res); err != nil {
		logger.Printf("stats scrape failed (report incomplete): %v", err)
	}
	return res, nil
}

// postFeedback POSTs one ground-truth report for a prediction.
func postFeedback(client *http.Client, base, predictionID string, truth json.RawMessage) error {
	body, err := json.Marshal(struct {
		PredictionID string          `json:"prediction_id"`
		Pages        json.RawMessage `json:"pages"`
	}{predictionID, truth})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("feedback status %d", resp.StatusCode)
	}
	return nil
}

// postReload POSTs the admin reload endpoint, which swaps from the server's
// configured snapshot.
func postReload(client *http.Client, base string) error {
	resp, err := client.Post(base+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("reload status %d: %s", resp.StatusCode, msg)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// scrapeStats folds the server's own /stats accounting into the result:
// request rows, cache hit rate, sheds, timeouts, model_error events, and
// swap/generation counts.
func scrapeStats(client *http.Client, base string, res *loadResult) error {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats status %d", resp.StatusCode)
	}
	var st struct {
		Requests []struct {
			Endpoint string `json:"endpoint"`
			Code     int    `json:"code"`
			Count    uint64 `json:"count"`
		} `json:"requests"`
		Fallbacks  uint64            `json:"fallbacks"`
		Shed       uint64            `json:"requests_shed"`
		Timeouts   uint64            `json:"inference_timeouts"`
		Generation uint64            `json:"generation"`
		Swaps      uint64            `json:"swaps"`
		Events     map[string]uint64 `json:"events"`
		PredCache  *struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"predcache"`
		Quality struct {
			Scored      uint64  `json:"scored"`
			Precision   float64 `json:"precision"`
			Recall      float64 `json:"recall"`
			WastedRatio float64 `json:"wasted_ratio"`
		} `json:"quality"`
		Drift struct {
			State string  `json:"state"`
			Score float64 `json:"score"`
		} `json:"drift"`
		Baseline *struct {
			Hash string `json:"hash"`
		} `json:"baseline"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	res.serverPredictOutcomes = st.Events["predcache_hit"] + st.Events["inference_run"] + st.Fallbacks + st.Shed
	for _, r := range st.Requests {
		switch r.Endpoint {
		case "predict":
			res.serverPredicts += r.Count
			if r.Code == http.StatusOK {
				res.serverPredict200 = r.Count
			}
			if (r.Code < 200 || r.Code > 299) && r.Code != http.StatusServiceUnavailable {
				res.serverPredictOutcomes += r.Count
			}
		case "feedback":
			res.serverFeedbacks += r.Count
			if r.Code >= 400 && r.Code <= 499 {
				res.serverFeedback4xx += r.Count
			}
		}
	}
	res.Shed = st.Shed
	res.Timeouts = st.Timeouts
	res.Generation = st.Generation
	res.Swaps = st.Swaps
	res.serverModelErrors = st.Events["model_error"]
	if st.PredCache != nil {
		res.CacheHits = st.PredCache.Hits
		res.CacheMisses = st.PredCache.Misses
		if total := st.PredCache.Hits + st.PredCache.Misses; total > 0 {
			res.CacheHitRate = float64(st.PredCache.Hits) / float64(total)
		}
	}
	res.QualityScored = st.Quality.Scored
	res.Precision = st.Quality.Precision
	res.Recall = st.Quality.Recall
	res.WastedRatio = st.Quality.WastedRatio
	res.DriftState = st.Drift.State
	res.DriftScore = st.Drift.Score
	if st.Baseline != nil {
		res.BaselineHash = st.Baseline.Hash
	}
	return nil
}

// corpusEntry is one pre-encoded request: the QuerySpec body for
// /v1/predict and the instance's true page set, pre-marshaled for
// /v1/feedback so the feedback path does zero encoding work per request.
type corpusEntry struct {
	body  []byte
	truth json.RawMessage
}

// buildCorpus encodes every workload instance's QuerySpec (and ground-truth
// page list) once up front so the load loop does zero encoding work.
func buildCorpus(gen *dsb.Generator, templates []string, n int, seed uint64) ([]corpusEntry, error) {
	type pageJSON struct {
		Object string `json:"object"`
		Page   uint32 `json:"page"`
	}
	reg := gen.DB().Registry
	var corpus []corpusEntry
	for _, tpl := range templates {
		w := gen.Workload(tpl, n, seed+1)
		for _, inst := range w.Instances {
			var buf bytes.Buffer
			if err := spec.FromQuery(inst.Query).Encode(&buf); err != nil {
				return nil, fmt.Errorf("encoding corpus: %w", err)
			}
			truth := make([]pageJSON, 0, len(inst.Pages))
			for _, p := range inst.Pages {
				name := ""
				if obj := reg.Lookup(p.Object); obj != nil {
					name = obj.Name
				}
				truth = append(truth, pageJSON{Object: name, Page: uint32(p.Page)})
			}
			raw, err := json.Marshal(truth)
			if err != nil {
				return nil, fmt.Errorf("encoding ground truth: %w", err)
			}
			corpus = append(corpus, corpusEntry{body: buf.Bytes(), truth: raw})
		}
	}
	if len(corpus) == 0 {
		return nil, errors.New("empty corpus")
	}
	return corpus, nil
}

// trainSystem trains the self-hosted serving models, mirroring pythia-serve's
// training loop with the same flags so remote corpora stay compatible.
func trainSystem(logger *log.Logger, gen *dsb.Generator, templates []string, n int, seed uint64) (*corepythia.System, error) {
	cfg, err := corepythia.DefaultConfig().Normalize()
	if err != nil {
		return nil, err
	}
	sys := corepythia.New(gen.DB(), cfg)
	for _, tpl := range templates {
		logger.Printf("training %s (%d instances)...", tpl, n)
		start := time.Now()
		w := gen.Workload(tpl, n, seed+1)
		sys.Train(tpl, w.Instances)
		logger.Printf("trained %s in %s", tpl, time.Since(start).Round(time.Millisecond))
	}
	return sys, nil
}
