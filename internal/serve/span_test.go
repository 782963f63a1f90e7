package serve

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/span"
)

// TestHTTPSpansRecorded drives the golden request sequence through a server
// with a span tracer attached and checks each recorded HTTP span: endpoint
// label, status detail, and epoch-relative virtual timestamps derived from
// the fake clock (every clock reading steps 1ms, and instrument reads it
// twice per request).
func TestHTTPSpansRecorded(t *testing.T) {
	srv := goldenServer(t)
	tracer := span.NewSync()
	srv.metrics.SetTracer(tracer)

	doRequest(t, srv, http.MethodGet, "/v1/healthz", nil)
	doRequest(t, srv, http.MethodPost, "/v1/predict", strings.NewReader(`{"fact":`))
	doRequest(t, srv, http.MethodGet, "/metrics", nil)

	spans := tracer.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	// The fake clock steps 1ms per reading and setClock consumed the epoch
	// reading; healthz and metrics each read the clock once more inside their
	// handlers (uptime), so the exact bounds below pin the whole reading
	// sequence.
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	want := []struct {
		label      string
		status     uint32
		start, end sim.Time
	}{
		{"healthz", http.StatusOK, ms(1), ms(3)},
		{"predict", http.StatusBadRequest, ms(4), ms(5)},
		{"metrics", http.StatusOK, ms(6), ms(8)},
	}
	for i, w := range want {
		s := spans[i]
		if s.Kind != span.HTTPSpan {
			t.Errorf("span %d kind = %v", i, s.Kind)
		}
		if s.Label != w.label || s.Detail != w.status {
			t.Errorf("span %d = %q/%d, want %q/%d", i, s.Label, s.Detail, w.label, w.status)
		}
		if s.Query != span.NoQuery {
			t.Errorf("span %d attributed to query %d", i, s.Query)
		}
		if s.Start != w.start || s.End != w.end {
			t.Errorf("span %d = [%v, %v], want [%v, %v]", i, s.Start, s.End, w.start, w.end)
		}
	}
}

// TestHTTPSpansOffByDefault: without SetTracer the hub records nothing and
// requests still flow — the nil span.Sync no-op contract.
func TestHTTPSpansOffByDefault(t *testing.T) {
	srv := goldenServer(t)
	if rr := doRequest(t, srv, http.MethodGet, "/v1/healthz", nil); rr.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rr.Code)
	}
	if srv.metrics.tracer.Load().Len() != 0 {
		t.Errorf("untraced hub recorded %d spans", srv.metrics.tracer.Load().Len())
	}
}

// TestHubStampsAndForwardsEvents: the hub counts each serving-tier event once
// and, with a tracer attached, forwards it stamped with the hub clock's
// epoch-relative reading; the tracer's table decides what shows as a mark.
// The emitter here is a real prediction cache recording into the hub — there
// is no second, hand-placed mark beside its event.
func TestHubStampsAndForwardsEvents(t *testing.T) {
	m := NewMetrics(nil)
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0).UTC()}
	m.setClock(clk.Now) // consumes the epoch reading
	cache := newPredCache(16, m)

	cache.get(7) // untraced: counted, and the clock is not consulted
	tracer := span.NewSync()
	m.SetTracer(tracer)
	// Traced: each event reads the clock once, in order — 1ms, 2ms, …
	cache.get(7) // miss
	cache.put(7, nil)
	cache.get(7)                                                            // hit
	m.Record(obs.Event{Kind: obs.ModelError, Query: obs.NoQuery})           // stamped, but not a mark
	m.Record(obs.Event{Kind: obs.QualityScored, Query: obs.NoQuery, At: 9}) // 4ms: the hub's stamp wins

	ev := m.Events()
	if ev.Get(obs.PredCacheMiss) != 2 || ev.Get(obs.PredCacheHit) != 1 || ev.Get(obs.ModelError) != 1 {
		t.Errorf("counters: miss=%d hit=%d model_error=%d, want 2/1/1",
			ev.Get(obs.PredCacheMiss), ev.Get(obs.PredCacheHit), ev.Get(obs.ModelError))
	}
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	want := []struct {
		kind obs.Kind
		name string
		at   sim.Time
	}{
		{obs.PredCacheMiss, "predcache_miss", ms(1)},
		{obs.PredCacheHit, "predcache_hit", ms(2)},
		{obs.QualityScored, "quality_feedback", ms(4)},
	}
	spans := tracer.Snapshot()
	if len(spans) != len(want) {
		t.Fatalf("recorded %d marks, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		s := spans[i]
		if !s.IsMark(w.kind) || s.Name() != w.name || s.Start != w.at || s.Query != span.NoQuery {
			t.Errorf("mark %d = %s (event %v) at %v for query %d, want %s at %v on the system lane",
				i, s.Name(), s.Event, s.Start, s.Query, w.name, w.at)
		}
	}
}
