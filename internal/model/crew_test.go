package model

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCrewRunsEveryWorkerOncePerJob: each run calls the job once on every
// worker, each call sees what the caller wrote before run, a wait inside the
// job returns once the worker waited for has woken it, and run returns only
// after every call has — through spells where a helper or the caller
// outlasts the poll bound and parks. Fails if a helper skips or repeats a
// job, if a wait returns before its condition holds or misses its wake, or
// if run returns while a helper is still in it (under -race, also if the
// job is handed over without ordering). Then, with another crew filling
// the cores, only the caller runs a job.
func TestCrewRunsEveryWorkerOncePerJob(t *testing.T) {
	for n := 1; n <= 4; n++ {
		c := newCrew(n)
		counts := make([]int, n)
		seen := make([]int, n)
		var arrived atomic.Int32
		round := 0
		job := func(w int) {
			counts[w]++
			seen[w] = round
			switch {
			case round%50 == 1 && w == n-1:
				// Outlast the caller's polls: run parks until this returns.
				time.Sleep(200 * time.Microsecond)
			case round%50 == 2 && w == 0:
				// Outlast the helpers' polls: they park before the next job.
				time.Sleep(200 * time.Microsecond)
			case round%50 == 3 && w == n-1 && n > 1:
				// Outlast worker 0's polls inside the job: it parks in wait.
				time.Sleep(200 * time.Microsecond)
			}
			arrived.Add(1)
			c.wake()
			if w == 0 {
				c.wait(0, func() bool { return arrived.Load() == int32(n) })
				if got := arrived.Load(); got != int32(n) {
					t.Errorf("crew of %d, job %d: wait returned with %d of %d workers arrived", n, round, got, n)
				}
			}
		}
		for round = 1; round <= 200; round++ {
			arrived.Store(0)
			c.run(job)
			for w := range counts {
				if counts[w] != round || seen[w] != round {
					t.Fatalf("crew of %d, job %d: worker %d ran %d jobs, last saw job %d", n, round, w, counts[w], seen[w])
				}
			}
		}
		c.stop()
	}

	// While another crew's workers fill the cores, a crew runs each job on
	// its caller alone.
	other := newCrew(int(min(runtime.GOMAXPROCS(0), runtime.NumCPU())))
	c := newCrew(2)
	var helped atomic.Bool
	c.run(func(w int) { helped.Store(helped.Load() || w != 0) })
	if helped.Load() {
		t.Error("a helper ran a job while another crew's workers filled the cores")
	}
	c.stop()
	other.stop()
}

// TestTrainRunsOneJobPerGroup: a Train runs one crew job per group of
// trainBatch samples, whether its crew has one worker or several. Fails if a
// group's backprop, merge and update become separate jobs again, each a
// barrier where the helpers wait for the caller.
func TestTrainRunsOneJobPerGroup(t *testing.T) {
	vocab, cfg, labelSets, samples := seededShape(3, 2)
	groups := (len(samples) + trainBatch - 1) / trainBatch
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		before := crewJobs.Load()
		NewTrunk(vocab, labelSets, cfg).Train(samples)
		got := crewJobs.Load() - before
		runtime.GOMAXPROCS(prev)
		if want := int64(cfg.Epochs * groups); got != want {
			t.Fatalf("GOMAXPROCS %d: %d samples over %d epochs ran %d crew jobs, want %d", procs, len(samples), cfg.Epochs, got, want)
		}
	}
}

// TestWaitBudgetRecovers: a worker whose waits park polls less each time,
// down to minPolls; a condition that holds at once leaves the budget; and
// once its waits are short again, one that polling can end restores the
// whole budget before as many waits have parked again as had parked in a
// row. Fails if the budget only ever falls (a ratchet: the worker would
// park at every wait for the rest of the Train) or never falls.
func TestWaitBudgetRecovers(t *testing.T) {
	c := newCrew(1)
	defer c.stop()
	// wait runs one wait whose condition holds from its need-th poll, or
	// from the check after the worker's last poll if that comes first (so a
	// wait that parks returns); it reports whether polling ended it. The
	// first check, before any poll, fails.
	wait := func(need int) bool {
		budget, checks := c.polls(0), 0
		c.await(&c.busy, 0, func() bool {
			checks++
			polls := checks - 1
			return polls >= need || polls > budget
		})
		return need <= budget
	}
	if !wait(100) || c.polls(0) != spinPolls {
		t.Fatalf("a short wait left the budget at %d, want %d", c.polls(0), spinPolls)
	}
	const parked = 3 * probeAfter
	for i := 0; i < parked; i++ {
		wait(1 << 30)
	}
	if got := c.polls(0); got != minPolls {
		t.Fatalf("after %d parked waits the budget is %d, want %d", parked, got, minPolls)
	}
	// A condition that already holds is no wait and leaves the budget.
	c.await(&c.busy, 0, func() bool { return true })
	if got := c.polls(0); got != minPolls {
		t.Fatalf("a wait that did not wait moved the budget to %d", got)
	}
	// Waits of spinPolls/2 polls: more than minPolls, within spinPolls.
	for i := 0; !wait(spinPolls / 2); i++ {
		if i == parked {
			t.Fatalf("%d more waits that polling could end all parked", parked)
		}
	}
	if got := c.polls(0); got != spinPolls {
		t.Fatalf("after a wait polling ended the budget is %d, want %d", got, spinPolls)
	}
}

// TestTrainLeavesNoGoroutines: once Train returns, the crew's helpers have
// exited, parked or spinning, and the goroutine count is back where it
// started. Fails if stop waits only for some helpers or does not wake them.
func TestTrainLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	vocab, cfg, labelSets, samples := seededShape(3, 2)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		NewTrunk(vocab, labelSets, cfg).Train(samples)
	}
	// A helper is counted until it has returned from its last deferred
	// call, a moment after stop's Wait sees it done; an earlier test's may
	// still be in before. Five leaked crews would be 15 goroutines.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after Train, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentTrainsMatchSolo: two Trains running at once at GOMAXPROCS 2
// (while both live, each crew runs its jobs on its caller alone) each give
// the loss and weights their solo Train gives, bit for bit.
func TestConcurrentTrainsMatchSolo(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	seeds := []uint64{4, 5}
	solo := make([]*Trunk, len(seeds))
	soloLoss := make([]float64, len(seeds))
	for i, seed := range seeds {
		vocab, cfg, labelSets, samples := seededShape(seed, 3)
		solo[i] = NewTrunk(vocab, labelSets, cfg)
		soloLoss[i] = solo[i].Train(samples)
	}
	for round := 0; round < 3; round++ {
		got := make([]*Trunk, len(seeds))
		loss := make([]float64, len(seeds))
		var wg sync.WaitGroup
		for i, seed := range seeds {
			vocab, cfg, labelSets, samples := seededShape(seed, 3)
			got[i] = NewTrunk(vocab, labelSets, cfg)
			wg.Add(1)
			go func() {
				defer wg.Done()
				loss[i] = got[i].Train(samples)
			}()
		}
		wg.Wait()
		for i := range seeds {
			if math.Float64bits(loss[i]) != math.Float64bits(soloLoss[i]) {
				t.Fatalf("seed %d, round %d: loss %v, solo %v (bitwise)", seeds[i], round, loss[i], soloLoss[i])
			}
			want := solo[i].params(solo[i].heads)
			for j, p := range got[i].params(got[i].heads) {
				sameBits(t, p.Name, p.W.Data, want[j].W.Data)
			}
		}
	}
}
