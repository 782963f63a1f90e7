package replay

import (
	"reflect"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
)

// execPages extracts the executor's served page sequence from an event log:
// the buffer pool emits exactly one BufferHit or BufferMiss per executor
// request, in request order.
func execPages(log *obs.EventLog) []storage.PageID {
	var out []storage.PageID
	for _, e := range log.Events() {
		if e.Kind == obs.BufferHit || e.Kind == obs.BufferMiss {
			out = append(out, e.Page)
		}
	}
	return out
}

func faultSpecs(reqs []storage.Request) []QuerySpec {
	return []QuerySpec{{ID: "q", Requests: reqs, Prefetch: trace.Process(reqs)}}
}

// TestFaultsNeverChangeResults is the tentpole invariant: faults only ever
// change timing and cache state, never which pages the executor serves or
// whether the query completes. At any fault rate the executor's page
// sequence and per-request accounting identity are those of the fault-free
// run.
func TestFaultsNeverChangeResults(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 500, 300, 1)

	run := func(inj *fault.Injector) (*RunResult, []storage.PageID) {
		log := obs.NewEventLog()
		c := cfg()
		c.Recorder = log
		c.Fault = inj
		res := Run(reg, c, faultSpecs(reqs))
		return res, execPages(log)
	}

	baseline, basePages := run(nil)
	if len(basePages) != len(reqs) {
		t.Fatalf("baseline served %d pages, script has %d", len(basePages), len(reqs))
	}

	for _, rate := range []float64{0, 0.05, 0.2, 0.9} {
		plan := fault.Plan{
			ExecReadRate:     rate,
			PrefetchReadRate: rate,
			LatencySpikeRate: rate / 2,
		}
		res, pages := run(fault.New(plan, 99))
		if !reflect.DeepEqual(pages, basePages) {
			t.Fatalf("rate %g: executor page sequence diverged from fault-free run", rate)
		}
		qr := res.Queries[0]
		if int(qr.BufferHits+qr.OSCopies+qr.DiskReads) != len(reqs) {
			t.Fatalf("rate %g: request accounting broken: %+v vs %d requests",
				rate, qr, len(reqs))
		}
		if qr.Elapsed <= 0 {
			t.Fatalf("rate %g: query did not complete", rate)
		}
		if rate == 0 {
			// An all-zero plan must be timeline-identical to no injector.
			if res.End != baseline.End || qr.Elapsed != baseline.Queries[0].Elapsed {
				t.Fatal("zero plan perturbed the fault-free timeline")
			}
		}
		if rate >= 0.2 && res.ReadFailures == 0 {
			t.Fatalf("rate %g: no read failures recorded", rate)
		}
	}
}

// TestFaultRunsBitwiseReproducible: two runs with fresh injectors built from
// the same plan and seed produce bitwise-identical results.
func TestFaultRunsBitwiseReproducible(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 400, 200, 2)
	plan := fault.Plan{ExecReadRate: 0.1, PrefetchReadRate: 0.3, LatencySpikeRate: 0.05}

	run := func() *RunResult {
		c := cfg()
		c.Fault = fault.New(plan, 1234)
		return Run(reg, c, faultSpecs(reqs))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same plan+seed produced different RunResults")
	}
	// A different seed moves the faults (sanity check the comparison has
	// teeth).
	c := cfg()
	c.Fault = fault.New(plan, 4321)
	if other := Run(reg, c, faultSpecs(reqs)); reflect.DeepEqual(a, other) {
		t.Fatal("different seeds produced identical fault timelines")
	}
}

// TestDegradationAccounting exercises the retry → abandon → fallback ladder
// at the constants production runs and checks its counters reconcile.
func TestDegradationAccounting(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 300, 400, 3)
	c := cfg()
	c.Fault = fault.New(fault.Plan{PrefetchReadRate: 0.6}, 7)
	res := Run(reg, c, faultSpecs(reqs))
	qr := res.Queries[0]

	if qr.ReadFailures == 0 || qr.PrefetchRetries == 0 || qr.PrefetchAbandons == 0 {
		t.Fatalf("degradation ladder unexercised: %+v", qr)
	}
	if qr.FallbackSyncReads == 0 {
		t.Fatal("no abandoned page was served by the executor fallback")
	}
	if qr.FallbackSyncReads > qr.PrefetchAbandons {
		t.Fatalf("more fallbacks (%d) than abandons (%d)",
			qr.FallbackSyncReads, qr.PrefetchAbandons)
	}
	// Aggregates mirror the per-query counters (single query).
	if res.ReadFailures != qr.ReadFailures || res.PrefetchAbandons != qr.PrefetchAbandons ||
		res.PrefetchRetries != qr.PrefetchRetries || res.FallbackSyncReads != qr.FallbackSyncReads {
		t.Fatalf("run aggregates diverge from per-query counters: %+v vs %+v", res, qr)
	}
	if qr.PrefetchGaveUp {
		t.Fatal("prefetcher gave up: the fixture no longer reaches the abandon rung without the last one")
	}
	if int(qr.BufferHits+qr.OSCopies+qr.DiskReads) != len(reqs) {
		t.Fatalf("accounting identity broken under degradation: %+v", qr)
	}
}

// TestPrefetcherGivesUp: with every prefetch read failing, the prefetcher
// gives up after maxAbandons (8) pages and the query still completes. The
// counts are the constants': each abandoned page failed 1+maxRetries (4)
// attempts and was retried maxRetries (3) times, and at the give-up the other
// prefetchWorkers-1 (3) AIO slots each hold a page whose first attempt failed
// and whose first retry is scheduled.
func TestPrefetcherGivesUp(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 100, 300, 4)
	c := cfg()
	c.Fault = fault.New(fault.Plan{PrefetchReadRate: 1}, 5)
	res := Run(reg, c, faultSpecs(reqs))
	qr := res.Queries[0]
	if !qr.PrefetchGaveUp {
		t.Fatalf("prefetcher did not give up: %+v", qr)
	}
	if qr.PrefetchAbandons != 8 || qr.FallbackSyncReads != 8 || qr.Prefetched != 0 ||
		qr.ReadFailures != 8*4+3 || qr.PrefetchRetries != 8*3+3 {
		t.Fatalf("ladder counts %d abandons, %d fallbacks, %d prefetched, %d failures, %d retries; want 8, 8, 0, 35, 27",
			qr.PrefetchAbandons, qr.FallbackSyncReads, qr.Prefetched, qr.ReadFailures, qr.PrefetchRetries)
	}
	if int(qr.BufferHits+qr.OSCopies+qr.DiskReads) != len(reqs) {
		t.Fatalf("query incomplete after give-up: %+v", qr)
	}
}

// TestExecReadRetriesAlwaysComplete: even at a 90% foreground failure rate
// the executor's bounded retries end in a guaranteed final attempt, so the
// query completes — slower, never wrong.
func TestExecReadRetriesAlwaysComplete(t *testing.T) {
	reg := testRegistry()
	reqs := script(reg, 200, 400, 5)
	base := Run(reg, cfg(), []QuerySpec{{ID: "q", Requests: reqs}})

	c := cfg()
	c.Fault = fault.New(fault.Plan{ExecReadRate: 0.9}, 6)
	res := Run(reg, c, []QuerySpec{{ID: "q", Requests: reqs}})
	qr := res.Queries[0]
	if int(qr.BufferHits+qr.OSCopies+qr.DiskReads) != len(reqs) {
		t.Fatalf("accounting identity broken: %+v", qr)
	}
	if qr.ReadFailures == 0 {
		t.Fatal("no foreground read failures at 90% rate")
	}
	if res.End <= base.End {
		t.Fatalf("retries did not cost time: faulty end %v vs clean %v", res.End, base.End)
	}
	if qr.DiskReads != base.Queries[0].DiskReads {
		t.Fatalf("faults changed foreground disk-read count: %d vs %d",
			qr.DiskReads, base.Queries[0].DiskReads)
	}
}

// TestBackoffSchedule pins the doubling-with-cap backoff shape.
func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		250 * time.Microsecond, 500 * time.Microsecond, time.Millisecond,
		2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := backoff(attempt); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", attempt, got, w)
		}
	}
}
