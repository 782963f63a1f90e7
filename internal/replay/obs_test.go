package replay

import (
	"testing"

	"github.com/pythia-db/pythia/internal/buffer"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/oscache"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
)

// TestRecorderReconcilesWithAggregates replays a golden two-query run (one
// prefetched, one default) with a counting recorder and checks that every
// event total reconciles exactly with the legacy aggregate stats — the
// property that makes the observability layer trustworthy as a measurement
// surface rather than a second, drifting set of numbers.
func TestRecorderReconcilesWithAggregates(t *testing.T) {
	reg := testRegistry()
	reqsA := script(reg, 500, 300, 41)
	reqsB := script(reg, 300, 200, 42)
	var c obs.Counters
	cfgRec := cfg()
	cfgRec.Recorder = &c
	res := Run(reg, cfgRec, []QuerySpec{
		{ID: "a", Requests: reqsA, Prefetch: trace.Process(reqsA), Window: 4},
		{ID: "b", Requests: reqsB},
	})

	var sumHits, sumOSCopies, sumDisk, sumPrefetched, sumSkip, sumStalls uint64
	for _, q := range res.Queries {
		sumHits += q.BufferHits
		sumOSCopies += q.OSCopies
		sumDisk += q.DiskReads
		sumPrefetched += q.Prefetched
		sumSkip += q.PrefetchSkip
		sumStalls += q.WindowStalls
	}

	checks := []struct {
		name      string
		kind      obs.Kind
		aggregate uint64
	}{
		{"buffer hits", obs.BufferHit, res.Buffer.Hits},
		{"buffer hits (per-query)", obs.BufferHit, sumHits},
		{"buffer misses", obs.BufferMiss, res.Buffer.Misses},
		{"buffer inserts", obs.BufferInsert, res.Buffer.Inserts},
		{"buffer evictions", obs.BufferEvict, res.Buffer.Evictions},
		{"failed inserts", obs.BufferInsertFailed, res.Buffer.FailedInserts},
		{"prefetched in", obs.PrefetchedIn, res.Buffer.PrefetchedIn},
		{"prefetch hits", obs.PrefetchHit, res.Buffer.PrefetchHits},
		{"prefetch wasted", obs.PrefetchWasted, res.Buffer.PrefetchWasted},
		{"oscache hits", obs.OSCacheHit, res.OS.Hits},
		{"oscache misses", obs.OSCacheMiss, res.OS.Misses},
		{"readahead pages", obs.OSReadaheadPage, res.OS.ReadaheadPages},
		{"oscache evictions", obs.OSCacheEvict, res.OS.Evictions},
		{"foreground disk reads", obs.DiskRead, sumDisk},
		{"prefetch pinned", obs.PrefetchPinned, sumPrefetched},
		{"prefetch skipped", obs.PrefetchSkipped, sumSkip},
		{"window stalls", obs.WindowStall, sumStalls},
		{"query starts", obs.QueryStart, uint64(len(res.Queries))},
		{"query finishes", obs.QueryFinish, uint64(len(res.Queries))},
	}
	for _, ck := range checks {
		if got := c.Get(ck.kind); got != ck.aggregate {
			t.Errorf("%s: recorder %d != aggregate %d", ck.name, got, ck.aggregate)
		}
	}
	// A pinned arrival whose page the executor faulted in first touches a
	// resident frame, so pinned can exceed the pool's prefetched-in count,
	// never trail it.
	if c.Get(obs.PrefetchPinned) < res.Buffer.PrefetchedIn {
		t.Errorf("pinned %d < pool prefetched-in %d",
			c.Get(obs.PrefetchPinned), res.Buffer.PrefetchedIn)
	}
	// Executor misses split exactly into OS-cache copies and foreground
	// disk reads; device reads split exactly into cache misses + readahead.
	if c.Get(obs.BufferMiss) != sumOSCopies+sumDisk {
		t.Errorf("buffer misses %d != OS copies %d + disk reads %d",
			c.Get(obs.BufferMiss), sumOSCopies, sumDisk)
	}
	if res.Disk != c.Get(obs.OSCacheMiss)+c.Get(obs.OSReadaheadPage) {
		t.Errorf("device reads %d != cache misses %d + readahead %d",
			res.Disk, c.Get(obs.OSCacheMiss), c.Get(obs.OSReadaheadPage))
	}
	if sumPrefetched == 0 || sumStalls == 0 {
		t.Fatalf("golden run not exercising prefetch path: pinned=%d stalls=%d", sumPrefetched, sumStalls)
	}
}

// TestPerQuerySnapshots checks the RunResult snapshots: each query's counter
// snapshot matches its own legacy counters, and each query carries the
// prefetch set its spec gave it.
func TestPerQuerySnapshots(t *testing.T) {
	reg := testRegistry()
	reqsA := script(reg, 400, 300, 43)
	reqsB := script(reg, 200, 100, 44)
	pfA := trace.Process(reqsA)
	var c obs.Counters
	cfgRec := cfg()
	cfgRec.Recorder = &c
	res := Run(reg, cfgRec, []QuerySpec{
		{ID: "a", Requests: reqsA, Prefetch: pfA, Window: 128},
		{ID: "b", Requests: reqsB},
	})

	for _, q := range res.Queries {
		if q.Counters == nil {
			t.Fatalf("query %s has no counter snapshot", q.ID)
		}
		if got := q.Counters.Get(obs.BufferHit); got != q.BufferHits {
			t.Errorf("%s buffer hits: snapshot %d != %d", q.ID, got, q.BufferHits)
		}
		if got := q.Counters.Get(obs.DiskRead); got != q.DiskReads {
			t.Errorf("%s disk reads: snapshot %d != %d", q.ID, got, q.DiskReads)
		}
		if got := q.Counters.Get(obs.PrefetchPinned); got != q.Prefetched {
			t.Errorf("%s prefetched: snapshot %d != %d", q.ID, got, q.Prefetched)
		}
		if got := q.Counters.Get(obs.WindowStall); got != q.WindowStalls {
			t.Errorf("%s stalls: snapshot %d != %d", q.ID, got, q.WindowStalls)
		}
	}
	if res.Queries[1].Counters.Get(obs.PrefetchPinned) != 0 {
		t.Error("default-path query attributed prefetch events")
	}
	if a := res.Queries[0].Prefetch; len(a) != len(pfA) || &a[0] != &pfA[0] {
		t.Error("query a does not carry its spec's prefetch set")
	}
	if res.Queries[1].Prefetch != nil {
		t.Error("default-path query carries a prefetch set")
	}

	// Without a recorder, snapshots stay nil — the hot path stays bare.
	plain := Run(reg, cfg(), []QuerySpec{{ID: "a", Requests: reqsA}})
	if plain.Queries[0].Counters != nil {
		t.Fatal("snapshots materialized without a recorder")
	}
}

// TestRecorderDoesNotPerturbTiming: observability must be read-only — the
// replayed timeline with a recorder attached is bitwise identical to the
// timeline without one.
func TestRecorderDoesNotPerturbTiming(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 400, 400, 45)
	pf := trace.Process(reqs)
	base := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs, Prefetch: pf, Window: 64}})
	var c obs.Counters
	cfgRec := cfg()
	cfgRec.Recorder = &c
	observed := Run(reg, cfgRec, []QuerySpec{{ID: "q", Requests: reqs, Prefetch: pf, Window: 64}})
	if base.Elapsed("q") != observed.Elapsed("q") || base.Disk != observed.Disk {
		t.Fatalf("recorder perturbed replay: %v/%d vs %v/%d",
			base.Elapsed("q"), base.Disk, observed.Elapsed("q"), observed.Disk)
	}
}

// TestEventLogCarriesAttribution spot-checks that events flowing to a user
// recorder are stamped with query index and virtual time.
func TestEventLogCarriesAttribution(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 100, 100, 46)
	l := obs.NewEventLog()
	cfgRec := cfg()
	cfgRec.Recorder = l
	Run(reg, cfgRec, []QuerySpec{{ID: "q", Requests: reqs, Prefetch: trace.Process(reqs), Window: 32}})
	if l.Len() == 0 {
		t.Fatal("no events logged")
	}
	sawTimed := false
	for _, e := range l.Events() {
		if e.Query != 0 {
			t.Fatalf("event %v attributed to query %d", e.Kind, e.Query)
		}
		if e.At > 0 {
			sawTimed = true
		}
	}
	if !sawTimed {
		t.Fatal("no event carried a virtual timestamp")
	}
}

// TestInstrumentationAllocFree pins the disabled-path cost: buffer and OS
// cache hot operations allocate nothing extra whether the recorder is nil
// or a plain counter.
func TestInstrumentationAllocFree(t *testing.T) {
	page := storage.PageID{Object: 1, Page: 0}
	for _, withRec := range []bool{false, true} {
		pool := buffer.New(64, buffer.Clock)
		osc := oscache.New(64, 0)
		var c obs.Counters
		if withRec {
			pool.SetRecorder(&c)
			osc.SetRecorder(&c)
		}
		pool.Insert(page, false)
		stream := osc.NewStream()
		osc.Read(stream, page, 16)
		if allocs := testing.AllocsPerRun(1000, func() { pool.Get(page) }); allocs != 0 {
			t.Errorf("pool.Get allocates %v/op (recorder=%v)", allocs, withRec)
		}
		if allocs := testing.AllocsPerRun(1000, func() { osc.Read(stream, page, 16) }); allocs != 0 {
			t.Errorf("osc.Read allocates %v/op (recorder=%v)", allocs, withRec)
		}
	}
}

// BenchmarkReplayDefault / BenchmarkReplayObserved make allocation or time
// regressions in the instrumented hot path visible:
//
//	go test -run=NONE -bench=BenchmarkReplay -benchmem ./internal/replay/
func BenchmarkReplayDefault(b *testing.B) {
	reg := testRegistry()
	reqs := script(reg, 500, 300, 47)
	pf := trace.Process(reqs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs, Prefetch: pf, Window: 64}})
	}
}

func BenchmarkReplayObserved(b *testing.B) {
	reg := testRegistry()
	reqs := script(reg, 500, 300, 47)
	pf := trace.Process(reqs)
	var c obs.Counters
	cfgRec := cfg()
	cfgRec.Recorder = &c
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(reg, cfgRec, []QuerySpec{{ID: "q", Requests: reqs, Prefetch: pf, Window: 64}})
	}
}
