package span

import (
	"testing"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
)

func pg(obj, n uint32) storage.PageID {
	return storage.PageID{Object: storage.ObjectID(obj), Page: storage.PageNum(n)}
}

// TestNilTracerIsSafe exercises every method on a nil *Tracer — the off
// switch must be a no-op everywhere, exactly like a nil obs.Recorder or a
// nil fault.Injector.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Reserve(100)
	tr.Reset()
	if id := tr.Begin(ExecDiskWait, 3, pg(1, 2), 5); id != NoSpan {
		t.Errorf("nil Begin = %d, want NoSpan", id)
	}
	if id := tr.BeginLabel(QuerySpan, "q", 3, pg(1, 2), 5); id != NoSpan {
		t.Errorf("nil BeginLabel = %d, want NoSpan", id)
	}
	tr.End(0, 10)
	tr.EndDetail(0, 10, 1)
	if id := tr.Complete(ExecOSCopy, 3, pg(1, 2), 5, 10); id != NoSpan {
		t.Errorf("nil Complete = %d, want NoSpan", id)
	}
	tr.Record(obs.Event{Kind: obs.PrefetchHit, Page: pg(1, 2), At: 5})
	tr.Stash(pg(1, 2), 7)
	if id := tr.takeStash(pg(1, 2)); id != NoSpan {
		t.Errorf("nil takeStash = %d, want NoSpan", id)
	}
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer has spans")
	}
}

// TestSpanRecording checks ID assignment, bounds, attribution, and the
// End/EndDetail guards.
func TestSpanRecording(t *testing.T) {
	tr := New()
	id := tr.Begin(ExecDiskWait, 2, pg(4, 9), 100)
	if id != 0 {
		t.Fatalf("first span ID = %d", id)
	}
	tr.End(id, 350)
	s := tr.Spans()[0]
	if s.Kind != ExecDiskWait || s.Query != 2 || s.Page != pg(4, 9) || s.Start != 100 || s.End != 350 {
		t.Errorf("span = %+v", s)
	}
	if got := s.Dur(); got != 250 {
		t.Errorf("Dur = %v", got)
	}

	// Out-of-range and NoSpan ends are silent no-ops.
	tr.End(NoSpan, 999)
	tr.End(42, 999)
	tr.EndDetail(NoSpan, 999, 7)

	id2 := tr.Complete(ExecOSCopy, 2, pg(4, 10), 350, 354)
	if id2 != 1 {
		t.Errorf("second span ID = %d", id2)
	}
	tr.EndDetail(id2, 360, DetailAbandoned)
	if s := tr.Spans()[1]; s.End != 360 || s.Detail != DetailAbandoned {
		t.Errorf("EndDetail: %+v", s)
	}

	// A mark is the event, verbatim: the query (5, not the spans' 2) and time
	// are the event's, and a linking mark takes the page's stashed span.
	tr.Stash(pg(4, 9), id)
	tr.Record(obs.Event{Kind: obs.PrefetchHit, Query: 5, Page: pg(4, 9), At: 400})
	if s := tr.Spans()[2]; !s.IsMark(obs.PrefetchHit) || s.Query != 5 || s.Page != pg(4, 9) ||
		s.Start != 400 || s.End != 400 || s.Link != id {
		t.Errorf("mark = %+v", s)
	}
	// Events the marks table does not name leave nothing on the timeline.
	tr.Record(obs.Event{Kind: obs.DiskRead, Query: 5, Page: pg(4, 9), At: 400})
	tr.Record(obs.Event{Kind: obs.KindCount, At: 400})

	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Errorf("Len after Reset = %d", tr.Len())
	}
}

// TestClockResolution: there is none. The tracer holds no clock, so a
// timestamp is what the caller (or the event's stamp point) passed, and zero
// is virtual time zero for spans and marks alike — a reused tracer cannot
// stamp anything at an earlier run's "now".
func TestClockResolution(t *testing.T) {
	tr := New()
	tr.End(tr.Begin(ExecDiskWait, NoQuery, pg(1, 1), 777), 999)
	tr.Reset()
	id := tr.Begin(ExecDiskWait, NoQuery, pg(1, 1), 0)
	tr.End(id, 0)
	tr.Complete(ExecOSCopy, NoQuery, pg(1, 1), 0, 4)
	tr.Record(obs.Event{Kind: obs.BufferHit, Page: pg(1, 1)})
	for i, s := range tr.Spans() {
		if s.Start != 0 || (s.End != 0 && s.End != 4) {
			t.Errorf("span %d = [%v, %v], want it to start at 0", i, s.Start, s.End)
		}
	}
}

// TestStash: links park under a page and are consumed exactly once.
func TestStash(t *testing.T) {
	tr := New()
	id := tr.Begin(PrefetchRead, NoQuery, pg(3, 7), 10)
	tr.Stash(pg(3, 7), id)
	if got := tr.takeStash(pg(3, 7)); got != id {
		t.Errorf("takeStash = %d, want %d", got, id)
	}
	if got := tr.takeStash(pg(3, 7)); got != NoSpan {
		t.Errorf("second takeStash = %d, want NoSpan", got)
	}
	// Stashing NoSpan is a no-op, so disabled-tracer IDs never pollute maps.
	tr.Stash(pg(3, 8), NoSpan)
	if got := tr.takeStash(pg(3, 8)); got != NoSpan {
		t.Errorf("takeStash after NoSpan stash = %d", got)
	}
}

// TestKindNames: every kind has a distinct non-empty snake_case name, and the
// marks table — the only place a mark's timeline name is defined — exports
// exactly the vocabulary the goldens and dashboards were built on.
func TestKindNames(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < KindCount; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, name)
		}
		seen[name] = k
	}
	if KindCount.String() != "unknown" {
		t.Errorf("KindCount.String() = %q", KindCount.String())
	}

	want := map[obs.Kind]string{
		obs.BufferHit: "buffer_hit", obs.BufferMiss: "buffer_miss", obs.BufferEvict: "buffer_evict",
		obs.PrefetchHit: "prefetch_hit", obs.PrefetchWasted: "prefetch_wasted",
		obs.OSCacheHit: "oscache_hit", obs.OSCacheMiss: "oscache_miss", obs.OSCacheEvict: "oscache_evict",
		obs.WindowStall: "window_stall", obs.FallbackSyncRead: "fallback_sync_read",
		obs.InferenceDeadlineMiss: "inference_degrade",
	}
	linking := map[obs.Kind]bool{obs.PrefetchHit: true, obs.PrefetchWasted: true, obs.FallbackSyncRead: true}
	for k := obs.Kind(0); k < obs.KindCount; k++ {
		s := Span{Kind: Mark, Event: k}
		if got := s.Name(); got != want[k] {
			t.Errorf("mark of %v exports as %q, want %q", k, got, want[k])
		}
		if marks[k].link != linking[k] {
			t.Errorf("mark of %v: link = %v, want %v", k, marks[k].link, linking[k])
		}
		if prev, dup := seen[want[k]]; dup && want[k] != "" {
			t.Errorf("mark of %v shares name %q with kind %d", k, want[k], prev)
		}
	}
}

// TestRecordingAllocFree proves the per-event contract: with capacity
// reserved, neither the nil-tracer path nor the enabled path allocates.
func TestRecordingAllocFree(t *testing.T) {
	var nilTr *Tracer
	p := pg(2, 5)
	if a := testing.AllocsPerRun(1000, func() {
		id := nilTr.Begin(ExecDiskWait, 1, p, 10)
		nilTr.End(id, 20)
		nilTr.Record(obs.Event{Kind: obs.BufferHit, Page: p, At: 20})
	}); a != 0 {
		t.Errorf("nil tracer: %v allocs/event batch", a)
	}

	tr := New()
	tr.Reserve(4 * 1001)
	tr.Stash(p, 0) // pre-size the one-entry stash
	tr.takeStash(p)
	if a := testing.AllocsPerRun(1000, func() {
		id := tr.Begin(PrefetchRead, 1, p, 10)
		tr.EndDetail(id, 20, DetailAbandoned)
		tr.Stash(p, id)
		tr.Record(obs.Event{Kind: obs.FallbackSyncRead, Query: 1, Page: p, At: 20})
	}); a != 0 {
		t.Errorf("enabled tracer: %v allocs/event batch", a)
	}
}

// TestBuildReport drives a synthetic timeline through the aggregator and
// checks the attribution arithmetic.
func TestBuildReport(t *testing.T) {
	tr := New()
	q0 := tr.BeginLabel(QuerySpan, "alpha", 0, storage.PageID{}, 0)
	tr.Complete(InferWait, 0, storage.PageID{}, 0, 500)
	d0 := tr.Begin(ExecDiskWait, 0, pg(1, 1), 500)
	tr.Complete(ExecRetryWait, 0, pg(1, 1), 1000, 1250)
	tr.End(d0, 2000)
	tr.Complete(ExecOSCopy, 0, pg(1, 1), 2000, 2004)
	pf := tr.Begin(PrefetchRead, 0, pg(2, 9), 600)
	tr.End(pf, 1600)
	tr.Stash(pg(2, 9), pf)
	tr.Record(obs.Event{Kind: obs.PrefetchHit, Query: 0, Page: pg(2, 9), At: 2100})
	tr.End(q0, 3000)

	q1 := tr.BeginLabel(QuerySpan, "beta", 1, storage.PageID{}, 0)
	tr.Complete(ExecOSCopy, 1, pg(1, 3), 100, 104)
	tr.Record(obs.Event{Kind: obs.FallbackSyncRead, Query: 1, Page: pg(2, 4), At: 300})
	tr.End(q1, 400)

	rep := BuildReport(tr.Spans())
	if len(rep.Queries) != 2 {
		t.Fatalf("queries = %d", len(rep.Queries))
	}
	a := rep.Queries[0]
	if a.Label != "alpha" || a.Elapsed != 3000 || a.DiskBlocked != 1500 ||
		a.RetryBackoff != 250 || a.OSCopy != 4 || a.PrefetchHidden != 1000 ||
		a.Inference != 500 || a.DiskReads != 1 || a.OSCopies != 1 || a.PrefetchHits != 1 {
		t.Errorf("q0 = %+v", a)
	}
	b := rep.Queries[1]
	if b.Label != "beta" || b.Elapsed != 400 || b.OSCopy != 4 || b.Fallbacks != 1 || b.DiskReads != 0 {
		t.Errorf("q1 = %+v", b)
	}
	if rep.Total.Elapsed != 3400 || rep.Total.DiskReads != 1 || rep.Total.OSCopies != 2 {
		t.Errorf("total = %+v", rep.Total)
	}

	// Objects sorted by ID: 1 then 2.
	if len(rep.Objects) != 2 || rep.Objects[0].Object != 1 || rep.Objects[1].Object != 2 {
		t.Fatalf("objects = %+v", rep.Objects)
	}
	if o := rep.Objects[0]; o.DiskBlocked != 1500 || o.OSCopy != 8 || o.OSCopies != 2 {
		t.Errorf("object 1 = %+v", o)
	}
	if o := rep.Objects[1]; o.PrefetchHidden != 1000 || o.PrefetchHits != 1 {
		t.Errorf("object 2 = %+v", o)
	}
}
