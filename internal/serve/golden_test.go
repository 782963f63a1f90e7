package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/obs"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
)

// fakeClock hands out a strictly stepping wall clock: every reading advances
// one millisecond, so request latencies and uptime depend only on how many
// times the hub consulted the clock — never on the host.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(time.Millisecond)
	return now
}

// goldenServer builds a fresh untrained server whose metrics hub runs
// entirely on a fake clock. Nothing in it may read the host clock, host
// randomness, or shared fixture state.
func goldenServer(t testing.TB) *Server {
	t.Helper()
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 2, Seed: 7})
	metrics := NewMetrics(nil)
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0).UTC()}
	metrics.setClock(clk.Now)
	// Build metadata varies by toolchain and checkout; pin it so the golden
	// bodies are byte-identical everywhere.
	metrics.setBuildInfo(BuildInfo{GoVersion: "go1.22.0", Path: "github.com/pythia-db/pythia", Revision: "deadbeef"})
	cfg := corepythia.DefaultConfig()
	cfg.Recorder = metrics.Events()
	sys := corepythia.New(g.DB(), cfg)
	return mustServer(t, g.DB(), sys, metrics, Options{})
}

// checkGolden compares a response body byte-for-byte against a committed
// golden file. Run with UPDATE_GOLDEN=1 to regenerate.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s body diverged from golden file\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestObservabilityGoldenBodies locks down the full /metrics and /stats
// bodies: with a fixed request sequence and a fake clock the rendered output
// must be byte-identical on every run — any map-order leak, field reorder,
// or format drift in the observability surface fails this test.
func TestObservabilityGoldenBodies(t *testing.T) {
	srv := goldenServer(t)

	// A fixed warm-up sequence: one 200 and one 400 on distinct endpoints.
	if rr := doRequest(t, srv, http.MethodGet, "/v1/healthz", nil); rr.Code != http.StatusOK {
		t.Fatalf("healthz status %d: %s", rr.Code, rr.Body.String())
	}
	if rr := doRequest(t, srv, http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":`)); rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed predict status %d: %s", rr.Code, rr.Body.String())
	}

	rr := doRequest(t, srv, http.MethodGet, "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rr.Code)
	}
	checkGolden(t, "metrics.golden", rr.Body.Bytes())

	// /stats continues on the same clock, one completed /metrics request
	// later: its golden body pins the JSON field order and the sorted
	// request and latency tables.
	rr = doRequest(t, srv, http.MethodGet, "/stats", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("stats status %d", rr.Code)
	}
	checkGolden(t, "stats.golden", rr.Body.Bytes())
}

// TestGoldenBodiesStable re-runs the identical sequence on a second fresh
// server and demands byte-identical bodies — the determinism claim without
// reference to the committed files.
func TestGoldenBodiesStable(t *testing.T) {
	run := func() (metrics, stats string) {
		srv := goldenServer(t)
		doRequest(t, srv, http.MethodGet, "/v1/healthz", nil)
		doRequest(t, srv, http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":`))
		metrics = doRequest(t, srv, http.MethodGet, "/metrics", nil).Body.String()
		stats = doRequest(t, srv, http.MethodGet, "/stats", nil).Body.String()
		return metrics, stats
	}
	m1, s1 := run()
	m2, s2 := run()
	if m1 != m2 {
		t.Errorf("/metrics body not reproducible:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", m1, m2)
	}
	if s1 != s2 {
		t.Errorf("/stats body not reproducible:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", s1, s2)
	}
}

// TestHubCountsEachEventOnce: the hub counts every serving-tier event once
// and stamps none of them, so recording reads the clock zero times. That is
// what keeps the goldens still: the latencies and uptime they pin count the
// hub's clock readings, and a cache outcome or model error must not add one.
// The emitter is a real prediction cache recording into the hub.
func TestHubCountsEachEventOnce(t *testing.T) {
	m := NewMetrics(nil)
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0).UTC()}
	reads := 0
	m.setClock(func() time.Time { reads++; return clk.Now() })
	reads = 0 // setClock consumed the epoch reading
	cache := newPredCache(16, m)

	cache.get(7) // miss
	cache.get(8) // miss
	cache.put(7, nil)
	cache.get(7) // hit
	m.Record(obs.Event{Kind: obs.ModelError, Query: obs.NoQuery})

	ev := m.Events()
	if ev.Get(obs.PredCacheMiss) != 2 || ev.Get(obs.PredCacheHit) != 1 || ev.Get(obs.ModelError) != 1 {
		t.Errorf("counters: miss=%d hit=%d model_error=%d, want 2/1/1",
			ev.Get(obs.PredCacheMiss), ev.Get(obs.PredCacheHit), ev.Get(obs.ModelError))
	}
	var total uint64
	for k := obs.Kind(0); k < obs.KindCount; k++ {
		total += ev.Get(k)
	}
	if total != 4 {
		t.Errorf("%d events counted, want 4", total)
	}
	if reads != 0 {
		t.Errorf("recording read the clock %d times, want 0", reads)
	}
}
