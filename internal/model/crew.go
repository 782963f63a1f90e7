package model

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// crew runs one Train's parallel phases on n workers: worker 0 is the
// training goroutine itself and workers 1 … n−1 are helpers that live from
// newCrew to stop. run hands every worker the same job and returns when all
// have finished it, so each run is a barrier; while other live crews'
// workers fill the cores, it runs the job on worker 0 alone instead, so a
// job must hand its work out by claiming it. Between jobs a helper polls
// for the next one a bounded number of times, then parks until run or stop
// wakes it; run's caller waits for the helpers the same way. The bound is a
// count, not a duration, because the package reads no clock. The waits do
// not yield (runtime.Gosched): that cost as much as the crew saves.
type crew struct {
	n      int
	cores  int32         // min(GOMAXPROCS, NumCPU) when the crew started
	budget int           // run's poll budget (see adapt)
	job    func(w int)   // the current job; nil tells the helpers to exit
	seq    atomic.Uint64 // jobs published; a helper runs job each time it moves
	left   atomic.Int32  // helpers yet to finish the current job

	mu      sync.Mutex
	wake    sync.Cond    // parked helpers wait on it
	done    sync.Cond    // a parked run waits on it
	parked  atomic.Int32 // helpers parked, or about to check seq and park
	waiting atomic.Bool  // run is parked, or about to check left and park
	wg      sync.WaitGroup
}

// spinPolls, about 14 µs of polling on a 2-vCPU Xeon (Sapphire Rapids)
// VM, spans the gaps between one group's jobs and most of a job's imbalance
// at the default model width; a worker waiting longer parks. minPolls is
// the least a worker's budget falls to.
const (
	spinPolls = 1 << 14
	minPolls  = 1 << 6
)

// crewWorkers counts the workers of every live crew in the process.
var crewWorkers atomic.Int32

// polls is how many times a worker with the given budget polls before it
// parks: the budget while every live crew's workers can each have a core,
// none once they cannot. A spinning worker then holds a core that a worker
// it waits for needs, so concurrent Trains, or one crew larger than the
// machine, would starve themselves.
func (c *crew) polls(budget int) int {
	if crewWorkers.Load() > c.cores {
		return 0
	}
	return budget
}

// adapt returns a worker's poll budget after a wait that polling ended
// (ended) or that parked: doubled up to spinPolls, or halved down to
// minPolls. When the worker waited for does not have a core — another
// process holds it, or the race detector makes each poll cost tens of
// nanoseconds — polling fails, and the budget falls to where a wait costs
// about what parking does.
func adapt(budget int, ended bool) int {
	if ended {
		return min(2*budget, spinPolls)
	}
	return max(budget/2, minPolls)
}

// newCrew starts n−1 helpers; a crew of one runs every job on the caller.
func newCrew(n int) *crew {
	c := &crew{n: n, cores: int32(min(runtime.GOMAXPROCS(0), runtime.NumCPU())), budget: spinPolls}
	c.wake.L, c.done.L = &c.mu, &c.mu
	crewWorkers.Add(int32(n))
	c.wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go c.helper(w)
	}
	return c
}

// run calls job(w) on every worker w and returns when all have returned,
// or calls job(0) alone when the workers of the other live crews fill the
// cores: waking and parking helpers at every barrier would then cost more
// than they add.
func (c *crew) run(job func(w int)) {
	if c.n == 1 || crewWorkers.Load()-int32(c.n) >= c.cores {
		job(0)
		return
	}
	c.publish(job)
	job(0)
	polls := c.polls(c.budget)
	for i := 0; i < polls; i++ {
		if c.left.Load() == 0 {
			c.budget = adapt(c.budget, true)
			return
		}
	}
	if polls > 0 {
		c.budget = adapt(c.budget, false)
	}
	c.mu.Lock()
	c.waiting.Store(true)
	for c.left.Load() != 0 {
		c.done.Wait()
	}
	c.waiting.Store(false)
	c.mu.Unlock()
}

// stop wakes every helper to exit, spinning or parked, and waits for them.
func (c *crew) stop() {
	if c.n > 1 {
		c.publish(nil)
		c.wg.Wait()
	}
	crewWorkers.Add(-int32(c.n))
}

// publish hands the helpers job and wakes the parked ones. Every helper has
// finished the previous job, so none reads job or left while they change.
// A helper counts itself parked before it last reads seq, and publish moves
// seq before it reads the count, so one of the two sees the other.
func (c *crew) publish(job func(w int)) {
	c.job = job
	c.left.Store(int32(c.n - 1))
	c.seq.Add(1)
	if c.parked.Load() > 0 {
		c.mu.Lock()
		c.wake.Broadcast()
		c.mu.Unlock()
	}
}

func (c *crew) helper(w int) {
	defer c.wg.Done()
	var seen uint64
	budget := spinPolls
	for {
		seen = c.next(seen, &budget)
		job := c.job
		if job == nil {
			return
		}
		job(w)
		if c.left.Add(-1) == 0 && c.waiting.Load() {
			c.mu.Lock()
			c.done.Signal()
			c.mu.Unlock()
		}
	}
}

// next waits for seq to move past seen and returns it, adapting the
// helper's poll budget.
func (c *crew) next(seen uint64, budget *int) uint64 {
	polls := c.polls(*budget)
	for i := 0; i < polls; i++ {
		if s := c.seq.Load(); s != seen {
			*budget = adapt(*budget, true)
			return s
		}
	}
	if polls > 0 {
		*budget = adapt(*budget, false)
	}
	c.mu.Lock()
	c.parked.Add(1)
	for c.seq.Load() == seen {
		c.wake.Wait()
	}
	c.parked.Add(-1)
	c.mu.Unlock()
	return c.seq.Load()
}
