package replay

import (
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
)

// fixture: object 1 is a big "dimension" heap probed randomly, object 2 a
// "fact" heap scanned sequentially.
func testRegistry() *storage.Registry {
	reg := storage.NewRegistry()
	reg.Register("dim", storage.KindTable, 20000)
	reg.Register("fact", storage.KindTable, 2000)
	return reg
}

// script builds an interleaved request stream: a sequential scan of fact
// pages with nonSeq random dim-page probes sprinkled through it.
func script(reg *storage.Registry, seqPages, nonSeq int, seed uint64) []storage.Request {
	r := sim.NewRand(seed)
	dim := reg.LookupName("dim")
	fact := reg.LookupName("fact")
	var reqs []storage.Request
	probeEvery := 1
	if nonSeq > 0 {
		probeEvery = seqPages/nonSeq + 1
	}
	probes := 0
	for i := 0; i < seqPages; i++ {
		reqs = append(reqs, storage.Request{
			Page:       storage.PageID{Object: fact.ID, Page: storage.PageNum(i)},
			Sequential: true,
			Tuples:     50,
		})
		if probes < nonSeq && i%probeEvery == 0 {
			reqs = append(reqs, storage.Request{
				Page:   storage.PageID{Object: dim.ID, Page: storage.PageNum(r.Intn(int(dim.Pages)))},
				Tuples: 1,
			})
			probes++
		}
	}
	for probes < nonSeq {
		reqs = append(reqs, storage.Request{
			Page:   storage.PageID{Object: dim.ID, Page: storage.PageNum(r.Intn(int(dim.Pages)))},
			Tuples: 1,
		})
		probes++
	}
	return reqs
}

func cfg() Config {
	return Config{BufferPages: 4096, OSCachePages: 8192}
}

func TestDefaultReplayDeterministic(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 500, 300, 1)
	a := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs}})
	b := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs}})
	if a.Elapsed("q") != b.Elapsed("q") {
		t.Fatal("replay not deterministic")
	}
	if a.Elapsed("q") <= 0 {
		t.Fatal("zero elapsed time")
	}
	qr := a.Queries[0]
	if qr.DiskReads == 0 {
		t.Fatal("cold run had no disk reads")
	}
	if int(qr.BufferHits+qr.OSCopies+qr.DiskReads) != len(reqs) {
		t.Fatalf("request accounting mismatch: %+v vs %d", qr, len(reqs))
	}
}

func TestSequentialScanServedByReadahead(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 1000, 0, 2)
	res := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs}})
	qr := res.Queries[0]
	// With OS readahead, the vast majority of sequential reads are memory
	// copies, not disk reads.
	if qr.OSCopies < 900 {
		t.Fatalf("readahead ineffective: %+v", qr)
	}
	if qr.DiskReads > 100 {
		t.Fatalf("too many foreground disk reads on sequential scan: %d", qr.DiskReads)
	}
}

func TestOraclePrefetchSpeedsUpNonSequential(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 500, 400, 3)
	dflt := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs}})
	pref := Run(reg, cfg(), []QuerySpec{{
		ID: "q", Requests: reqs, Prefetch: trace.Process(reqs), Window: 1024,
	}})
	speedup := float64(dflt.Elapsed("q")) / float64(pref.Elapsed("q"))
	if speedup < 1.5 {
		t.Fatalf("oracle non-seq prefetch speedup = %.2f, want > 1.5", speedup)
	}
	if pref.Queries[0].Prefetched == 0 {
		t.Fatal("nothing was prefetched")
	}
}

// TestFigure1Mechanism reproduces the paper's Figure 1 contrast: prefetching
// sequentially read blocks barely helps (OS readahead already serves them),
// while prefetching the non-sequential blocks helps a lot.
func TestFigure1Mechanism(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 800, 400, 4)
	dflt := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs}})
	seqOnly := Run(reg, cfg(), []QuerySpec{{
		ID: "q", Requests: reqs, Prefetch: trace.Distinct(reqs, true), Window: 1024,
	}})
	nonSeqOnly := Run(reg, cfg(), []QuerySpec{{
		ID: "q", Requests: reqs, Prefetch: trace.Process(reqs), Window: 1024,
	}})
	base := float64(dflt.Elapsed("q"))
	seqSpeedup := base / float64(seqOnly.Elapsed("q"))
	nonSeqSpeedup := base / float64(nonSeqOnly.Elapsed("q"))
	if nonSeqSpeedup <= seqSpeedup {
		t.Fatalf("non-seq prefetch (%.2fx) should beat seq prefetch (%.2fx)", nonSeqSpeedup, seqSpeedup)
	}
	if seqSpeedup > 1.5 {
		t.Fatalf("seq prefetch speedup %.2fx implausibly high (readahead should already cover it)", seqSpeedup)
	}
}

func TestPrefetchAccountingAndPins(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 100, 200, 5)
	res := Run(reg, cfg(), []QuerySpec{{
		ID: "q", Requests: reqs, Prefetch: trace.Process(reqs), Window: 64,
	}})
	qr := res.Queries[0]
	if qr.Prefetched == 0 {
		t.Fatal("no prefetches landed")
	}
	if res.Buffer.PrefetchHits == 0 {
		t.Fatal("no prefetched page was ever used")
	}
}

func TestSmallWindowStillCompletes(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 200, 300, 6)
	for _, w := range []int{1, 2, 8, 64, 100000} {
		res := Run(reg, cfg(), []QuerySpec{{
			ID: "q", Requests: reqs, Prefetch: trace.Process(reqs), Window: w,
		}})
		if res.Elapsed("q") <= 0 {
			t.Fatalf("window %d: no elapsed time", w)
		}
	}
}

func TestLargerWindowNotSlower(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 400, 500, 7)
	pf := trace.Process(reqs)
	small := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs, Prefetch: pf, Window: 2}})
	large := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs, Prefetch: pf, Window: 512}})
	if large.Elapsed("q") > small.Elapsed("q")*11/10 {
		t.Fatalf("large window slower: %v vs %v", large.Elapsed("q"), small.Elapsed("q"))
	}
}

func TestTinyBufferLimitedPrefetchCompletes(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 100, 500, 8)
	c := cfg()
	c.BufferPages = 32 // far fewer frames than predicted pages
	res := Run(reg, c, []QuerySpec{{
		ID: "q", Requests: reqs, Prefetch: trace.Process(reqs), Window: 1024,
	}})
	if res.Elapsed("q") <= 0 {
		t.Fatal("query did not complete")
	}
	if res.Buffer.Evictions == 0 {
		t.Fatal("tiny buffer never evicted")
	}
}

func TestConcurrentQueriesShareBuffer(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 300, 300, 9)
	// Two identical queries arriving together: the second benefits from the
	// first's reads, so combined disk reads are fewer than 2× solo.
	solo := Run(reg, cfg(), []QuerySpec{{ID: "a", Requests: reqs}})
	both := Run(reg, cfg(), []QuerySpec{
		{ID: "a", Requests: reqs},
		{ID: "b", Requests: reqs},
	})
	if both.Disk >= 2*solo.Disk {
		t.Fatalf("concurrent identical queries did not share: solo=%d both=%d", solo.Disk, both.Disk)
	}
	for _, q := range both.Queries {
		if q.Elapsed <= 0 {
			t.Fatalf("query %s did not finish", q.ID)
		}
	}
}

func TestArrivalTimesRespected(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 50, 50, 10)
	res := Run(reg, cfg(), []QuerySpec{
		{ID: "a", Requests: reqs},
		{ID: "b", Requests: reqs, Arrival: 50 * time.Millisecond},
	})
	var a, b QueryResult
	for _, q := range res.Queries {
		if q.ID == "a" {
			a = q
		} else {
			b = q
		}
	}
	if b.Start.Sub(a.Start) != 50*time.Millisecond {
		t.Fatalf("arrival offset wrong: a=%v b=%v", a.Start, b.Start)
	}
}

func TestWarmSecondRunFaster(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 200, 200, 11)
	// Sequential (non-overlapping) execution of the same query twice in one
	// run: the second should be much faster thanks to warm caches.
	res := Run(reg, cfg(), []QuerySpec{
		{ID: "cold", Requests: reqs},
		{ID: "warm", Requests: reqs, Arrival: time.Minute},
	})
	if res.Elapsed("warm") >= res.Elapsed("cold") {
		t.Fatalf("warm run not faster: cold=%v warm=%v", res.Elapsed("cold"), res.Elapsed("warm"))
	}
}

func TestPrefetchUnknownObjectPanics(t *testing.T) {
	reg := testRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown object did not panic")
		}
	}()
	Run(reg, cfg(), []QuerySpec{{
		ID:       "q",
		Requests: []storage.Request{{Page: storage.PageID{Object: 99, Page: 0}}},
	}})
}

func TestElapsedUnknownIDPanics(t *testing.T) {
	res := &RunResult{}
	defer func() {
		if recover() == nil {
			t.Fatal("Elapsed of unknown id did not panic")
		}
	}()
	res.Elapsed("nope")
}

func TestTotalElapsed(t *testing.T) {
	res := &RunResult{Queries: []QueryResult{{Elapsed: time.Second}, {Elapsed: 2 * time.Second}}}
	if res.TotalElapsed() != 3*time.Second {
		t.Fatal("TotalElapsed wrong")
	}
}
