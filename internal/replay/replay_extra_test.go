package replay

import (
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/buffer"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/span"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
)

func TestConfigNormalizeFillsDefaults(t *testing.T) {
	c, err := (Config{}).Normalize()
	if err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	if c.BufferPages != 1024 || c.OSCachePages != 4096 {
		t.Fatalf("size defaults wrong: %+v", c)
	}
	// Explicit values are preserved.
	c2, err := (Config{BufferPages: 77, OSCachePages: 99}).Normalize()
	if err != nil {
		t.Fatalf("explicit config invalid: %v", err)
	}
	if c2.BufferPages != 77 || c2.OSCachePages != 99 {
		t.Fatalf("explicit config clobbered: %+v", c2)
	}
}

func TestConfigNormalizeRejectsNegatives(t *testing.T) {
	bad := []Config{
		{BufferPages: -1},
		{OSCachePages: -8},
		{ReadaheadMax: -2},
	}
	for i, c := range bad {
		if _, err := c.Normalize(); err == nil {
			t.Fatalf("config %d (%+v) accepted", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run with invalid config did not panic")
		}
	}()
	Run(testRegistry(), Config{BufferPages: -1}, nil)
}

// TestZeroWindowUsesDefault: a QuerySpec that leaves Window zero replays
// exactly as one that asks for 1024, on a script whose prefetches outrun a
// 1024-page window.
func TestZeroWindowUsesDefault(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 0, 3000, 21)
	run := func(window int) *RunResult {
		return Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs, Prefetch: trace.Process(reqs), Window: window}})
	}
	zero := run(0)
	if zero.Queries[0].WindowStalls == 0 {
		t.Fatal("the fixture never fills the window: zero and 1024 would agree vacuously")
	}
	if !reflect.DeepEqual(zero, run(1024)) {
		t.Fatal("a zero window replayed differently from Window 1024")
	}
}

func TestEmptyRequestListCompletesImmediately(t *testing.T) {
	reg := testRegistry()
	res := Run(reg, cfg(), []QuerySpec{{ID: "noop"}})
	if res.Elapsed("noop") != 0 {
		t.Fatalf("empty query elapsed %v", res.Elapsed("noop"))
	}
}

func TestPrefetchOfUnrequestedPagesHarmless(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 300, 300, 22)
	// Prefetch entirely wrong pages: correctness must hold (the paper's
	// "an incorrectly predicted page does not affect performance unless it
	// evicts a page required from the buffer").
	dim := reg.LookupName("dim")
	var wrong []storage.PageID
	for i := 0; i < 200; i++ {
		wrong = append(wrong, storage.PageID{Object: dim.ID, Page: storage.PageNum(10000 + i)})
	}
	dflt := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs}})
	bad := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs, Prefetch: wrong, Window: 64}})
	// With a large buffer the regression must be negligible (< 10%).
	if float64(bad.Elapsed("q")) > float64(dflt.Elapsed("q"))*1.1 {
		t.Fatalf("wrong prefetches caused regression: %v vs %v", bad.Elapsed("q"), dflt.Elapsed("q"))
	}
	// The script's probes are uniform over the dimension, so a handful of
	// accidental collisions with the "wrong" range are possible — but no
	// more than that.
	if bad.Buffer.PrefetchHits > 5 {
		t.Fatalf("wrong prefetches counted as useful: %d hits", bad.Buffer.PrefetchHits)
	}
}

// TestPrefetchOutsideDatabaseDropped: predicted pages the database does not
// have (an unknown object, a page at or past its object's end, a forged page
// 2³¹) are dropped before any I/O, so the run equals the one given only the
// valid pages, counters and cache statistics included.
func TestPrefetchOutsideDatabaseDropped(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 300, 200, 24)
	dim, fact := reg.LookupName("dim"), reg.LookupName("fact")
	valid := trace.Process(reqs)
	forged := append(slices.Clone(valid),
		storage.PageID{Object: 99, Page: 0},
		storage.PageID{Object: storage.InvalidObject, Page: 3},
		storage.PageID{Object: dim.ID, Page: dim.Pages},
		storage.PageID{Object: dim.ID, Page: 1 << 31},
		storage.PageID{Object: fact.ID, Page: fact.Pages + 5},
	)
	slices.SortFunc(forged, storage.PageID.Compare)
	run := func(pages []storage.PageID) *RunResult {
		c := cfg()
		c.Recorder = &obs.Counters{}
		res := Run(reg, c, []QuerySpec{{ID: "q", Requests: reqs, Prefetch: pages, Window: 64}})
		res.Queries[0].Prefetch = nil
		return res
	}
	want, got := run(valid), run(forged)
	if want.Queries[0].Prefetched == 0 {
		t.Fatal("the valid list prefetched nothing: the comparison would be vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pages outside the database changed the run:\n got %+v\nwant %+v", got.Queries[0], want.Queries[0])
	}
}

func TestMRUPolicyRuns(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 100, 200, 23)
	for _, pol := range []buffer.Policy{buffer.Clock, buffer.LRU, buffer.MRU} {
		c := cfg()
		c.BufferPolicy = pol
		c.BufferPages = 128
		res := Run(reg, c, []QuerySpec{{
			ID: "q", Requests: reqs, Prefetch: trace.Process(reqs), Window: 32,
		}})
		if res.Elapsed("q") <= 0 {
			t.Fatalf("%v replay failed", pol)
		}
	}
}

// TestCostOrdering pins the ordering every speedup depends on: a random disk
// read costs far more than a page of a sequential transfer, which costs more
// than an OS-cache copy, which costs more than a buffer hit.
func TestCostOrdering(t *testing.T) {
	if !(diskRead > seqDiskRead && seqDiskRead > osCacheCopy && osCacheCopy > bufferHit) {
		t.Fatalf("cost ordering violated: disk %v, sequential %v, OS copy %v, buffer hit %v",
			diskRead, seqDiskRead, osCacheCopy, bufferHit)
	}
	if diskChannels <= 0 || predictLatency <= 0 {
		t.Fatalf("disk channels %d and prediction latency %v must be positive", diskChannels, predictLatency)
	}
}

// TestDiskContentionBetweenQueries: queries over disjoint, non-sequential
// pages share only the device. Each has one foreground read in flight at a
// time, so up to diskChannels of them run exactly as fast as alone, and one
// more makes every read queue.
func TestDiskContentionBetweenQueries(t *testing.T) {
	reg := testRegistry()
	dim := reg.LookupName("dim")
	queries := func(n int) []QuerySpec {
		specs := make([]QuerySpec, n)
		for k := range specs {
			specs[k].ID = "q" + strconv.Itoa(k)
			for j := 0; j < 100; j++ { // stride n+1: never sequential, never shared
				page := storage.PageID{Object: dim.ID, Page: storage.PageNum(k + j*(n+1))}
				specs[k].Requests = append(specs[k].Requests, storage.Request{Page: page, Tuples: 1})
			}
		}
		return specs
	}
	solo := Run(reg, cfg(), queries(1)).Elapsed("q0")
	if full := Run(reg, cfg(), queries(diskChannels)).Elapsed("q0"); full != solo {
		t.Fatalf("%d queries on %d channels: q0 took %v, alone %v", diskChannels, diskChannels, full, solo)
	}
	if over := Run(reg, cfg(), queries(diskChannels+1)).Elapsed("q0"); over <= solo {
		t.Fatalf("no contention visible: alone %v, %d queries on %d channels %v", solo, diskChannels+1, diskChannels, over)
	}
}

// TestPredictLatencyDelaysPrefetchOnly: inference gates the prefetcher, not
// the executor. On a traced run the executor's first request starts at the
// query's arrival, and the first prefetch read exactly predictLatency later.
func TestPredictLatencyDelaysPrefetchOnly(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 10, 10, 26)
	arrival := sim.Time(7 * time.Millisecond)
	tr := span.New()
	c := cfg()
	c.Tracer = tr
	Run(reg, c, []QuerySpec{{ID: "q", Arrival: sim.Duration(arrival), Requests: reqs, Prefetch: trace.Process(reqs)}})
	first := func(kinds ...span.Kind) sim.Time {
		at := sim.Time(-1)
		for _, s := range tr.Spans() {
			if slices.Contains(kinds, s.Kind) && (at < 0 || s.Start < at) {
				at = s.Start
			}
		}
		return at
	}
	if got := first(span.ExecDiskWait, span.ExecOSCopy); got != arrival {
		t.Fatalf("executor's first request at %v, want the arrival %v", got, arrival)
	}
	if got, want := first(span.PrefetchRead), arrival.Add(predictLatency); got != want {
		t.Fatalf("first prefetch read at %v, want arrival + %v = %v", got, predictLatency, want)
	}
}

// TestReplayRunAllocBudget pins the steady state of a run at nothing
// allocated per event: three overlapping oracle-prefetched queries allocate
// their caches, runners, prefetchers and result once, and after that a page
// request — its engine events, buffer frame, OS cache entry and readahead
// slice — is served from storage that already exists. The budget of one
// allocation per ten requests leaves room for the per-run and per-query
// set-up (81 allocations against 2 400 requests; 12 735 before events, frames
// and cache entries were held by value) and none for anything per request.
func TestReplayRunAllocBudget(t *testing.T) {
	reg := testRegistry()
	var specs []QuerySpec
	requests := 0
	for i, id := range []string{"a", "b", "c"} {
		reqs := script(reg, 500, 300, uint64(50+i))
		requests += len(reqs)
		specs = append(specs, QuerySpec{
			ID: id, Arrival: sim.Duration(i) * 20 * time.Millisecond,
			Requests: reqs, Prefetch: trace.Process(reqs), Window: 64,
		})
	}
	c := Config{BufferPages: 512, OSCachePages: 1024} // smaller than the working set: evictions run too
	if res := Run(reg, c, specs); res.Buffer.Evictions == 0 || res.Buffer.PrefetchedIn == 0 || res.OS.ReadaheadPages == 0 {
		t.Fatalf("fixture does not reach eviction, prefetch and readahead: %+v %+v", res.Buffer, res.OS)
	}
	allocs := testing.AllocsPerRun(5, func() { Run(reg, c, specs) })
	if perRequest := allocs / float64(requests); perRequest > 0.1 {
		t.Fatalf("%.0f allocations over %d page requests = %.3f per request, budget 0.1", allocs, requests, perRequest)
	}
}
