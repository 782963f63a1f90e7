package replay

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/pythia-db/pythia/internal/buffer"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/oscache"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/span"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
)

// traceRun replays the golden two-query mix (one prefetched, one default)
// with a fresh tracer and returns it.
func traceRun(t *testing.T) *span.Tracer {
	t.Helper()
	reg := testRegistry()
	reqsA := script(reg, 40, 20, 91)
	reqsB := script(reg, 20, 10, 92)
	tr := span.New()
	c := cfg()
	c.Tracer = tr
	Run(reg, c, []QuerySpec{
		{ID: "a", Requests: reqsA, Prefetch: trace.Process(reqsA), Window: 8},
		{ID: "b", Requests: reqsB},
	})
	return tr
}

// TestTracerGoldenTimeline pins the full traced replay end to end: same seed
// and workload → byte-identical Perfetto JSON, across runs and against the
// checked-in golden. Regenerate with UPDATE_GOLDEN=1.
func TestTracerGoldenTimeline(t *testing.T) {
	var a, b bytes.Buffer
	if err := span.ExportChrome(&a, traceRun(t).Spans()); err != nil {
		t.Fatal(err)
	}
	if err := span.ExportChrome(&b, traceRun(t).Spans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two traced replays of the same workload differ")
	}

	path := filepath.Join("testdata", "replay.trace.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, a.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(a.Bytes(), want) {
		t.Errorf("traced replay diverged from golden (%d vs %d bytes); "+
			"inspect with git diff after UPDATE_GOLDEN=1", a.Len(), len(want))
	}
}

// TestTracerExactStallArithmetic checks the strongest acceptance property on
// a contention-free run: a single query, no prefetcher, purely non-sequential
// requests (so no readahead and no shared disk channels). Every foreground
// miss then costs exactly diskRead, and the stall report must reconcile
// to the nanosecond with the obs counters times the cost model.
func TestTracerExactStallArithmetic(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 0, 200, 93)
	tr := span.New()
	var cnt obs.Counters
	c := cfg()
	c.Tracer = tr
	c.Recorder = &cnt
	res := Run(reg, c, []QuerySpec{{ID: "solo", Requests: reqs}})

	rep := span.BuildReport(tr.Spans())
	if len(rep.Queries) != 1 {
		t.Fatalf("queries in report = %d", len(rep.Queries))
	}
	q := rep.Queries[0]
	disk := cnt.Get(obs.DiskRead)
	if disk == 0 {
		t.Fatal("run exercised no disk reads")
	}
	if q.DiskReads != disk {
		t.Errorf("span disk reads %d != obs disk_read %d", q.DiskReads, disk)
	}
	if want := sim.Duration(disk) * diskRead; q.DiskBlocked != want {
		t.Errorf("disk_blocked %v != %d reads x %v = %v", q.DiskBlocked, disk, diskRead, want)
	}
	// Every buffer miss ends in one kernel→user copy: OS-cache hits copy
	// directly, disk reads copy after the device returns.
	copies := cnt.Get(obs.OSCacheHit) + disk
	if q.OSCopies != copies {
		t.Errorf("span OS copies %d != oscache_hit %d + disk_read %d", q.OSCopies, cnt.Get(obs.OSCacheHit), disk)
	}
	if want := sim.Duration(copies) * osCacheCopy; q.OSCopy != want {
		t.Errorf("os_copy %v != %d copies x %v = %v", q.OSCopy, copies, osCacheCopy, want)
	}
	if q.Elapsed != sim.Duration(res.Elapsed("solo")) {
		t.Errorf("span elapsed %v != result elapsed %v", q.Elapsed, res.Elapsed("solo"))
	}
	if q.Inference != 0 || q.PrefetchHits != 0 || q.RetryBackoff != 0 {
		t.Errorf("no-prefetch run leaked prefetch attribution: %+v", q)
	}
}

// TestTracerReconcilesWithCounters replays the golden prefetched mix with
// both a tracer and a recorder attached and cross-checks every mark count
// against the matching obs counter — two views of one stream must tell one
// story — and the duration spans, which are recorded directly, against the
// events that bracket them.
func TestTracerReconcilesWithCounters(t *testing.T) {
	reg := testRegistry()
	reqsA := script(reg, 400, 300, 94)
	reqsB := script(reg, 200, 100, 95)
	tr := span.New()
	var cnt obs.Counters
	c := cfg()
	c.Tracer = tr
	c.Recorder = &cnt
	res := Run(reg, c, []QuerySpec{
		{ID: "a", Requests: reqsA, Prefetch: trace.Process(reqsA), Window: 16},
		{ID: "b", Requests: reqsB},
	})

	counts := map[span.Kind]uint64{}
	marks := map[obs.Kind]uint64{}
	for _, s := range tr.Spans() {
		counts[s.Kind]++
		if s.Kind == span.Mark {
			marks[s.Event]++
		}
	}
	for _, k := range []obs.Kind{
		obs.PrefetchHit, obs.WindowStall, obs.BufferHit, obs.BufferMiss, obs.BufferEvict,
		obs.PrefetchWasted, obs.OSCacheHit, obs.OSCacheMiss, obs.OSCacheEvict,
	} {
		if got, want := marks[k], cnt.Get(k); got != want {
			t.Errorf("%v: %d marks != %d counter events", k, got, want)
		}
	}
	if got, want := counts[span.ExecDiskWait], cnt.Get(obs.DiskRead); got != want {
		t.Errorf("disk waits: %d spans != %d counter events", got, want)
	}
	if got, want := counts[span.QuerySpan], cnt.Get(obs.QueryStart); got != want {
		t.Errorf("query spans: %d spans != %d counter events", got, want)
	}

	rep := span.BuildReport(tr.Spans())
	for i, q := range res.Queries {
		if got := rep.Queries[i].DiskReads; got != q.DiskReads {
			t.Errorf("query %s: report disk reads %d != result %d", q.ID, got, q.DiskReads)
		}
		if got := rep.Queries[i].Elapsed; got != sim.Duration(q.End-q.Start) {
			t.Errorf("query %s: report elapsed %v != result %v", q.ID, got, q.End-q.Start)
		}
		if rep.Queries[i].Label != q.ID {
			t.Errorf("query %d labeled %q, want %q", i, rep.Queries[i].Label, q.ID)
		}
	}
	if rep.Queries[0].PrefetchHidden == 0 {
		t.Error("prefetched query hid no disk time")
	}
	if rep.Queries[1].PrefetchHits != 0 || rep.Queries[1].Inference != 0 {
		t.Errorf("default-path query attributed prefetch work: %+v", rep.Queries[1])
	}
}

// TestTracerDoesNotPerturbTiming: tracing must be read-only — the replayed
// timeline with a tracer attached is bitwise identical to the timeline
// without one.
func TestTracerDoesNotPerturbTiming(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 400, 400, 96)
	pf := trace.Process(reqs)
	base := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs, Prefetch: pf, Window: 64}})
	c := cfg()
	c.Tracer = span.New()
	traced := Run(reg, c, []QuerySpec{{ID: "q", Requests: reqs, Prefetch: pf, Window: 64}})
	if base.Elapsed("q") != traced.Elapsed("q") || base.Disk != traced.Disk {
		t.Fatalf("tracer perturbed replay: %v/%d vs %v/%d",
			base.Elapsed("q"), base.Disk, traced.Elapsed("q"), traced.Disk)
	}
}

// TestTracerAllocFreeInHotPath mirrors TestInstrumentationAllocFree for the
// tracer: buffer and OS cache hot operations allocate nothing extra whether
// their event stream goes nowhere or to a tracer (with capacity reserved).
func TestTracerAllocFreeInHotPath(t *testing.T) {
	page := storage.PageID{Object: 1, Page: 0}
	for _, withTr := range []bool{false, true} {
		pool := buffer.New(64, buffer.Clock)
		osc := oscache.New(64, 0)
		if withTr {
			tr := span.New()
			tr.Reserve(4 * 2100)
			pool.SetRecorder(tr)
			osc.SetRecorder(tr)
		}
		pool.Insert(page, false)
		stream := osc.NewStream()
		osc.Read(stream, page, 16)
		if allocs := testing.AllocsPerRun(1000, func() { pool.Get(page) }); allocs != 0 {
			t.Errorf("pool.Get allocates %v/op (tracer=%v)", allocs, withTr)
		}
		if allocs := testing.AllocsPerRun(1000, func() { osc.Read(stream, page, 16) }); allocs != 0 {
			t.Errorf("osc.Read allocates %v/op (tracer=%v)", allocs, withTr)
		}
	}
}
