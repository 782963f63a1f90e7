package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
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
		"pythia_drift_evaluations_total",
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

// TestBooksBalance pins the two conservation identities that hold on every
// snapshot, with the prediction cache on or off, and counts its one fault:
//
//	predictions − fallbacks = predcache hits + inference_run
//	http_requests_total{endpoint="predict",code="503"} = requests_shed
//
// The first holds across a model swap too: the swap's warm-up serves no
// prediction, so it counts no hit and no inference. A faulted model path
// answers the fallback, so it counts as one fallback and one model_error
// event and nothing else. The
// work queue is the only admission point, so the second is also "no other
// endpoint ever answers 503": with the queue full, explain — which touches
// no model — still answers 200, and each refusal is exactly one 503.
func TestBooksBalance(t *testing.T) {
	for _, cache := range []int{0, -1} {
		t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) {
			srv, w := resilienceServer(t, Options{CacheEntries: cache, QueueDepth: 1})
			insts := distinctInstances(t, srv, w, 5)
			cold := func() *bytes.Buffer { return specBody(t, spec.FromQuery(w.Instances[insts[4]].Query)) }

			// Misses, then repeats (hits when the cache is on), and an
			// unmatched plan answering the fallback.
			for round := 0; round < 2; round++ {
				for _, i := range insts[:4] {
					predictOK(t, srv, w, i)
				}
			}
			if rr := doRequest(t, srv, http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":"inventory"}`)); rr.Code != http.StatusOK {
				t.Fatalf("unmatched plan: status %d: %s", rr.Code, rr.Body.String())
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
			rr := doRequest(t, srv, http.MethodPost, "/v1/predict", cold())
			if rr.Code != http.StatusServiceUnavailable || rr.Header().Get("Retry-After") == "" {
				t.Fatalf("predict with the queue full: status %d, Retry-After %q", rr.Code, rr.Header().Get("Retry-After"))
			}
			if rr := doRequest(t, srv, http.MethodPost, "/v1/explain", cold()); rr.Code != http.StatusOK {
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
			if n := answered("before swap"); n != 8 {
				t.Errorf("%d matched answers, want 8", n)
			}
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
			if predict503 != snap.Shed || snap.Shed != 1 || other503 != 0 {
				t.Errorf("503s on predict = %d, elsewhere = %d, requests_shed = %d, want 1, 0 and 1", predict503, other503, snap.Shed)
			}
			if refused := snap.Model.Shed; refused != snap.Shed {
				t.Errorf("queue refusals = %d, requests_shed = %d, want equal", refused, snap.Shed)
			}

			swapFixture(t, srv)
			answered("after swap")
			for _, i := range insts {
				predictOK(t, srv, w, i)
			}
			if n := answered("after post-swap traffic"); n != 8+uint64(len(insts)) {
				t.Errorf("%d matched answers after post-swap traffic, want %d", n, 8+len(insts))
			}
		})
	}
}

// TestSwapWritesNoBooks: a model swap with no client traffic is not a
// request. Its warm-up runs the standby's predictor and fills its cache, and
// moves nothing else: every event total (prediction cache, inference_run,
// prefetch_limited, model_error), the drift evaluation
// total, and the new row's served, shed and cache outcome counters. It holds
// when the warm set overflows the cache (2 entries) and when the prefetch
// budget cuts the predicted sets (4 buffer pages). With room for every plan
// the fill is complete: the first post-swap request for each plan is a cache
// hit.
func TestSwapWritesNoBooks(t *testing.T) {
	base, w := testServer(t)
	var fixture bytes.Buffer
	if err := fixtureSys.Save(&fixture); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name               string
		cache, bufferPages int
	}{{"roomy", 0, 0}, {"cache=2", 2, 0}, {"budget=3", 0, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics(nil)
			cfg := fixtureSys.Config()
			cfg.Recorder = m.Events()
			if tc.bufferPages > 0 {
				cfg.Replay.BufferPages = tc.bufferPages
			}
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
			if tc.bufferPages > 0 && before.EventCounts.Get(obs.PrefetchLimited) == 0 {
				t.Fatal("the prefetch budget cut no predicted set")
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
			r := after.Model
			if r.Served != 0 || r.Shed != 0 || r.CacheHits != 0 || r.CacheMisses != 0 || r.CacheEvictions != 0 {
				t.Errorf("new row moved by the swap: %+v", r)
			}
			if tc.cache != 0 {
				return
			}
			if entries := r.CacheEntries; entries != len(insts) {
				t.Errorf("warm-up filled %d cache entries, want %d", entries, len(insts))
			}
			for _, i := range insts {
				if resp := predictOK(t, srv, w, i); !resp.Cached || resp.Generation != 2 {
					t.Errorf("instance %d: first post-swap answer %+v, want a generation-2 cache hit", i, resp)
				}
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
