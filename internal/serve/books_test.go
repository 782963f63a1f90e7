package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/spec"
)

// scrape GETs /metrics and returns every sample keyed by its full series name
// (family plus rendered label set).
func scrape(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	rr := doRequest(t, srv, http.MethodGet, "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestFleetCountersMonotonicAcrossSwap: a family typed counter never goes
// backwards. The totals are hub counters, not the serving generation's own
// books, so a model swap — which replaces the generation and its books —
// leaves them where they were, and each one equals its pythia_events_total
// twin at every scrape.
func TestFleetCountersMonotonicAcrossSwap(t *testing.T) {
	srv, w := resilienceServer(t, Options{CacheEntries: 2, QueueDepth: 1})
	insts := distinctInstances(t, srv, w, 6)

	// Each plan twice in a row: a miss then a hit, and six plans through a
	// 2-entry cache evict. Unmatched plans feed the generation's drift
	// monitor past one evaluation.
	traffic := func() {
		for _, i := range insts {
			predictOK(t, srv, w, i)
			predictOK(t, srv, w, i)
		}
		for i := 0; i < serveDriftEvalEvery; i++ {
			doRequest(t, srv, http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":"inventory"}`))
		}
	}
	traffic()

	// One shed at the full work queue, and one scored feedback.
	first := predictOK(t, srv, w, insts[0])
	srv.inst().queue <- struct{}{}
	if rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w)); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict with the queue full: status %d: %s", rr.Code, rr.Body.String())
	}
	<-srv.inst().queue
	if rr := doRequest(t, srv, http.MethodPost, "/v1/feedback", feedbackBody(t, first.PredictionID, first.Pages)); rr.Code != http.StatusOK {
		t.Fatalf("feedback status %d: %s", rr.Code, rr.Body.String())
	}

	// The run above is built to move every one of these off zero.
	counters := []string{
		"pythia_predcache_hits_total", "pythia_predcache_misses_total", "pythia_predcache_evictions_total",
		"pythia_requests_shed_total", "pythia_quality_feedback_total",
		`pythia_quality_pages_total{set="predicted"}`, `pythia_quality_pages_total{set="actual"}`,
		`pythia_quality_pages_total{set="true_positive"}`, "pythia_drift_evaluations_total",
	}
	twins := map[string]obs.Kind{
		"pythia_predcache_hits_total":      obs.PredCacheHit,
		"pythia_predcache_misses_total":    obs.PredCacheMiss,
		"pythia_predcache_evictions_total": obs.PredCacheEvict,
		"pythia_quality_feedback_total":    obs.QualityScored,
	}
	var prev map[string]float64
	var prevStats statsResponse
	check := func(step string) {
		t.Helper()
		got := scrape(t, srv)
		var stats statsResponse
		if err := json.NewDecoder(doRequest(t, srv, http.MethodGet, "/stats", nil).Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		for fam, kind := range twins {
			if twin := got[fmt.Sprintf("pythia_events_total{kind=%q}", kind)]; got[fam] != twin {
				t.Errorf("%s: %s = %v but its events twin %s = %v", step, fam, got[fam], kind, twin)
			}
		}
		if float64(stats.PredCache.Hits) != got["pythia_predcache_hits_total"] || float64(stats.PredCache.Misses) != got["pythia_predcache_misses_total"] {
			t.Errorf("%s: /stats predcache %+v disagrees with /metrics", step, *stats.PredCache)
		}
		if prev != nil {
			for _, fam := range counters {
				if got[fam] < prev[fam] {
					t.Errorf("%s: counter %s went backwards: %v -> %v", step, fam, prev[fam], got[fam])
				}
			}
			if stats.PredCache.Hits < prevStats.PredCache.Hits || stats.PredCache.Misses < prevStats.PredCache.Misses {
				t.Errorf("%s: /stats predcache went backwards: %+v -> %+v", step, *prevStats.PredCache, *stats.PredCache)
			}
		}
		prev, prevStats = got, stats
	}

	check("before swap")
	for _, fam := range counters {
		if prev[fam] == 0 {
			t.Fatalf("%s is still 0 before the swap; the run did not exercise it", fam)
		}
	}

	swapFixture(t, srv)
	check("after swap")
	if prevStats.Generation != 2 {
		t.Fatalf("/stats still on generation %d", prevStats.Generation)
	}
	traffic()
	check("after post-swap traffic")
}

// swapFixture swaps the server's pool to a fresh snapshot of the fixture
// system.
func swapFixture(t *testing.T, srv *Server) {
	t.Helper()
	var snap bytes.Buffer
	if err := fixtureSys.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := srv.pool.Swap(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("swap: %v", err)
	}
}

// TestBooksBalance pins the conservation identities that hold on every
// snapshot, with the prediction cache on or off, and counts its one fault:
//
//	predictions − fallbacks = predcache hits + inference_run
//	http_requests_total{endpoint="predict",code="503"} = the 503 answers the
//	    client received (requests_shed reads that row)
//	Σ http_requests_total{endpoint="predict"} = predcache hits + inference_run
//	    + fallbacks + requests_shed + the predict rows of other non-2xx codes
//	Σ http_requests_total{endpoint="feedback"} = quality feedback + feedback 4xx
//
// They hold across a model swap too: a swap serves no request. A faulted
// model path answers the fallback, so it counts as one fallback and one
// model_error event and nothing else. The work queue is the only admission
// point, so the second is also "no other endpoint ever answers 503": with the
// queue full, explain — which touches no model — still answers 200, and each
// refusal is exactly one 503, counted once.
func TestBooksBalance(t *testing.T) {
	for _, cache := range []int{0, -1} {
		t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) {
			srv, w := resilienceServer(t, Options{CacheEntries: cache, QueueDepth: 1})
			insts := distinctInstances(t, srv, w, 5)
			cold := func() *bytes.Buffer { return specBody(t, spec.FromQuery(w.Instances[insts[4]].Query)) }
			// do is doRequest, counting the 503 answers the test receives
			// (predictOK fails on anything but 200).
			var received503 uint64
			do := func(method, path string, body io.Reader) *httptest.ResponseRecorder {
				rr := doRequest(t, srv, method, path, body)
				if rr.Code == http.StatusServiceUnavailable {
					received503++
				}
				return rr
			}

			// Misses, then repeats (hits when the cache is on), an unmatched
			// plan answering the fallback, and a body that never plans.
			var scored predictResponse
			for round := 0; round < 2; round++ {
				for _, i := range insts[:4] {
					scored = predictOK(t, srv, w, i)
				}
			}
			if rr := do(http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":"inventory"}`)); rr.Code != http.StatusOK {
				t.Fatalf("unmatched plan: status %d: %s", rr.Code, rr.Body.String())
			}
			if rr := do(http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":`)); rr.Code != http.StatusBadRequest {
				t.Fatalf("malformed predict: status %d: %s", rr.Code, rr.Body.String())
			}

			// Feedback: one report scored, its replay refused and a malformed
			// body.
			for _, fb := range []struct {
				body *bytes.Buffer
				code int
			}{
				{feedbackBody(t, scored.PredictionID, scored.Pages), http.StatusOK},
				{feedbackBody(t, scored.PredictionID, scored.Pages), http.StatusNotFound},
				{bytes.NewBufferString(`{"prediction_id":`), http.StatusBadRequest},
			} {
				if rr := do(http.MethodPost, "/v1/feedback", fb.body); rr.Code != fb.code {
					t.Fatalf("feedback: status %d, want %d: %s", rr.Code, fb.code, rr.Body.String())
				}
			}

			// An injected fault: a never-cached plan answers the degraded
			// fallback.
			srv.SetFault(fault.New(fault.Plan{ServeRate: 1}, 1))
			if resp := predictOK(t, srv, w, insts[4]); !resp.Fallback || resp.Degraded != "model_error" {
				t.Fatalf("faulted predict answered %+v, want the model_error fallback", resp)
			}
			srv.SetFault(nil)

			// The one shed site: the work queue full.
			srv.inst().queue <- struct{}{}
			rr := do(http.MethodPost, "/v1/predict", cold())
			if rr.Code != http.StatusServiceUnavailable || rr.Header().Get("Retry-After") == "" {
				t.Fatalf("predict with the queue full: status %d, Retry-After %q", rr.Code, rr.Header().Get("Retry-After"))
			}
			if rr := do(http.MethodPost, "/v1/explain", cold()); rr.Code != http.StatusOK {
				t.Fatalf("explain with the queue full: status %d: %s", rr.Code, rr.Body.String())
			}
			<-srv.inst().queue

			// answered checks the first identity and returns its value.
			answered := func(step string) uint64 {
				t.Helper()
				snap := srv.snapshot()
				inferences := snap.EventCounts.Get(obs.InferenceRun)
				got, want := snap.Predictions-snap.Fallbacks, snap.FleetCache.Hits+inferences
				if got != want {
					t.Errorf("%s: predictions %d − fallbacks %d = %d, predcache hits %d + inference_run %d = %d",
						step, snap.Predictions, snap.Fallbacks, got, snap.FleetCache.Hits, inferences, want)
				}
				return got
			}
			// requests checks the last two identities on one scrape.
			requests := func(step string) {
				t.Helper()
				got := scrape(t, srv)
				// Requests per endpoint, and those answered neither 2xx nor
				// 503 (feedback answers no 503, so its share is its 4xx).
				total, other := map[string]float64{}, map[string]float64{}
				for series, v := range got {
					m := requestSeries.FindStringSubmatch(series)
					if m == nil {
						continue
					}
					total[m[1]] += v
					if code, _ := strconv.Atoi(m[2]); (code < 200 || code > 299) && code != http.StatusServiceUnavailable {
						other[m[1]] += v
					}
				}
				if other["predict"] == 0 || other["feedback"] == 0 {
					t.Fatalf("%s: no non-2xx predict or feedback row to count: %v", step, other)
				}
				outcomes := got["pythia_predcache_hits_total"] + got[`pythia_events_total{kind="inference_run"}`] +
					got[`pythia_predictions_total{outcome="fallback"}`] + got["pythia_requests_shed_total"] + other["predict"]
				if total["predict"] != outcomes {
					t.Errorf("%s: %v predict requests, but hits + inference_run + fallbacks + shed + other non-2xx = %v", step, total["predict"], outcomes)
				}
				if fb := got["pythia_quality_feedback_total"] + other["feedback"]; total["feedback"] != fb {
					t.Errorf("%s: %v feedback posts, but scored + 4xx = %v", step, total["feedback"], fb)
				}
			}
			if n := answered("before swap"); n != 8 {
				t.Errorf("%d matched answers, want 8", n)
			}
			requests("before swap")
			snap := srv.snapshot()
			if wantHits := uint64(4 * (cache + 1)); snap.FleetCache.Hits != wantHits || snap.Fallbacks != 2 {
				t.Errorf("predcache hits %d, fallbacks %d, want %d and 2", snap.FleetCache.Hits, snap.Fallbacks, wantHits)
			}
			if n := snap.EventCounts.Get(obs.ModelError); n != 1 {
				t.Errorf("model_error events %d after one fault, want 1", n)
			}
			var predict503, other503 uint64
			for _, r := range snap.Requests {
				if r.Code != http.StatusServiceUnavailable {
					continue
				}
				if r.Endpoint == "predict" {
					predict503 += r.Count
				} else {
					other503 += r.Count
				}
			}
			if received503 != 1 || predict503 != received503 || other503 != 0 || snap.Shed != received503 {
				t.Errorf("503s on predict = %d, elsewhere = %d, requests_shed = %d; the test received %d, all from predict", predict503, other503, snap.Shed, received503)
			}

			swapFixture(t, srv)
			answered("after swap")
			requests("after swap")
			for _, i := range insts {
				predictOK(t, srv, w, i)
			}
			if n := answered("after post-swap traffic"); n != 8+uint64(len(insts)) {
				t.Errorf("%d matched answers after post-swap traffic, want %d", n, 8+len(insts))
			}
			requests("after post-swap traffic")
		})
	}
}

// requestSeries matches one pythia_http_requests_total sample's series name,
// capturing its endpoint and code.
var requestSeries = regexp.MustCompile(`^pythia_http_requests_total\{endpoint="([^"]+)",code="(\d+)"\}$`)

// TestSwapWritesNoBooks: a model swap is a build and one pointer store, not a
// request. With no client traffic it moves no event total (prediction cache,
// inference_run, workload matching, model_error) and no drift evaluation,
// with the cache on or off. The new generation starts with an empty cache:
// a plan's first request after the swap runs the model, and with the cache
// on its second is a hit.
func TestSwapWritesNoBooks(t *testing.T) {
	base, w := testServer(t)
	var fixture bytes.Buffer
	if err := fixtureSys.Save(&fixture); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cache int
	}{{"roomy", 0}, {"cache=off", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics(nil)
			cfg := fixtureSys.Config()
			cfg.Recorder = m.Events()
			sys, err := corepythia.LoadSystem(base.db, cfg, bytes.NewReader(fixture.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			srv := mustServer(t, base.db, sys, m, Options{CacheEntries: tc.cache})
			insts := distinctInstances(t, srv, w, 6)
			for _, i := range insts {
				predictOK(t, srv, w, i)
			}
			before := srv.snapshot()
			if on := tc.cache >= 0; on && before.FleetCache.Entries != len(insts) {
				t.Fatalf("cache holds %d entries before the swap, want %d", before.FleetCache.Entries, len(insts))
			}
			swapFixture(t, srv)
			after := srv.snapshot()

			if after.Generation != 2 || after.Swaps != 1 {
				t.Fatalf("swap did not complete: generation %d, swaps %d", after.Generation, after.Swaps)
			}
			for k := obs.Kind(0); k < obs.KindCount; k++ {
				if b, a := before.EventCounts.Get(k), after.EventCounts.Get(k); a != b {
					t.Errorf("swap moved %s: %d -> %d", k, b, a)
				}
			}
			if after.Drift.Evaluations != before.Drift.Evaluations {
				t.Errorf("swap moved drift evaluations %d -> %d", before.Drift.Evaluations, after.Drift.Evaluations)
			}
			if after.FleetCache.Entries != 0 {
				t.Errorf("the new generation's cache holds %d entries, want 0", after.FleetCache.Entries)
			}

			runs := after.EventCounts.Get(obs.InferenceRun)
			first, second := predictOK(t, srv, w, insts[0]), predictOK(t, srv, w, insts[0])
			if first.Cached || first.Generation != 2 {
				t.Errorf("first post-swap answer %+v, want a generation-2 model answer", first)
			}
			if second.Cached != (tc.cache >= 0) || second.Generation != 2 {
				t.Errorf("second post-swap answer %+v, want cached = %v on generation 2", second, tc.cache >= 0)
			}
			want := uint64(2)
			if second.Cached {
				want = 1
			}
			if got := srv.snapshot().EventCounts.Get(obs.InferenceRun) - runs; got != want {
				t.Errorf("two post-swap requests ran %d inferences, want %d", got, want)
			}
		})
	}
}

// TestFamilyTable: every /metrics family is one well-formed entry of the one
// table, so the renderer's HELP/TYPE pairing covers the whole exposition.
func TestFamilyTable(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range families(goldenServer(t).snapshot()) {
		if !strings.HasPrefix(f.name, "pythia_") || f.help == "" {
			t.Errorf("family %+v: want a pythia_ name and a help text", f)
		}
		if f.typ != counter && f.typ != gauge && f.typ != histogram {
			t.Errorf("family %s: type %q is not counter, gauge or histogram", f.name, f.typ)
		}
		if seen[f.name] {
			t.Errorf("family %s appears twice in the table", f.name)
		}
		seen[f.name] = true
	}
}
