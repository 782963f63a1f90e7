package model

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// crew runs one Train's groups on n workers: worker 0 is the training
// goroutine itself and workers 1 … n−1 are helpers that live from newCrew to
// stop. run hands every worker the same job and returns when all have
// finished it; while other live crews' workers fill the cores, it runs the
// job on worker 0 alone instead, so a job must hand its work out by claiming
// it, and worker 0 must be able to finish it alone. Inside a job a worker
// waits for another's work with wait, and a worker that finishes work
// someone may wait for calls wake.
//
// Every wait — a helper's for the next job, run's for the helpers, and the
// job's own — polls its condition a bounded number of times (see polls),
// then parks on a gate until the worker that makes the condition true opens
// it. The bound is a count, not a duration, because the package reads no
// clock. The waits do not yield (runtime.Gosched): that cost as much as the
// crew saves.
type crew struct {
	n       int
	cores   int32         // min(GOMAXPROCS, NumCPU) when the crew started
	budgets []budget      // per worker
	job     func(w int)   // the current job; nil tells the helpers to exit
	seq     atomic.Uint64 // jobs published; a helper runs job each time it moves
	left    atomic.Int32  // helpers yet to finish the current job

	mu sync.Mutex
	// idle parks helpers waiting for a job, busy workers waiting inside one
	// (run's wait for the helpers included). Keeping them apart means a
	// job's many wakes never rouse a helper waiting for the next job.
	idle, busy gate
	wg         sync.WaitGroup
}

// gate is where parked workers wait on the crew's mutex.
type gate struct {
	cond   sync.Cond
	parked atomic.Int32 // workers parked, or about to check their condition and park
}

// spinPolls, about 14 µs of polling on a 2-vCPU Xeon (Sapphire Rapids)
// VM, spans a wait for one task or for the end of a job at the default
// model width; minPolls is the least a worker's budget falls to, and
// probeAfter the waits in a row that park before it probes (see budget).
// Under the race detector a poll costs tens of times more, so there
// spinPolls is 2⁸, about as long; at 2¹⁴ the race tests of model, run
// beside predictor's and pythia's on two cores, took ≈ 25 % longer.
const (
	spinPolls  = 1 << (14 - raceShift)
	minPolls   = 1 << 6
	probeAfter = 32
)

// crewWorkers counts the workers of every live crew in the process, and
// crewJobs the jobs every crew has run.
var (
	crewWorkers atomic.Int32
	crewJobs    atomic.Int64
)

// budget is one worker's poll budget. A wait that parks halves it, down to
// minPolls, and one that polling ends doubles it, up to spinPolls: when the
// worker waited for lacks a core — another process holds it, or the race
// detector makes each poll cost tens of nanoseconds — polling fails, and a
// wait costs about what parking does. Halving alone is a ratchet, though:
// once the budget is shorter than every wait, no wait ends by polling to
// double it back. So the 32nd, 64th, 128th … wait in a row that parks is a
// probe that polls spinPolls, and a probe that polling ends restores it;
// spacing the probes out keeps them cheap where polling keeps failing.
type budget struct {
	polls  int
	parked int // waits in a row that parked
}

// next is how many times the worker polls in its next wait.
func (b *budget) next() int {
	if b.parked >= probeAfter && b.parked&(b.parked-1) == 0 {
		return spinPolls
	}
	return b.polls
}

// ended records a wait that polled polls times, and that polling ended or
// that parked.
func (b *budget) ended(polls int, byPolling bool) {
	if byPolling {
		b.polls, b.parked = min(2*polls, spinPolls), 0
	} else {
		b.polls, b.parked = max(b.polls/2, minPolls), b.parked+1
	}
}

// polls is how many times worker w polls in its next wait: its budget
// while every live crew's workers can each have a core, none once they
// cannot. A spinning worker then holds a core that a worker it waits for
// needs, so concurrent Trains, or one crew larger than the machine, would
// starve themselves.
func (c *crew) polls(w int) int {
	if crewWorkers.Load() > c.cores {
		return 0
	}
	return c.budgets[w].next()
}

// newCrew starts n−1 helpers; a crew of one runs every job on the caller.
func newCrew(n int) *crew {
	c := &crew{n: n, cores: int32(min(runtime.GOMAXPROCS(0), runtime.NumCPU())), budgets: make([]budget, n)}
	for w := range c.budgets {
		c.budgets[w].polls = spinPolls
	}
	c.idle.cond.L, c.busy.cond.L = &c.mu, &c.mu
	crewWorkers.Add(int32(n))
	c.wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go c.helper(w)
	}
	return c
}

// run calls job(w) on every worker w and returns when all have returned,
// or calls job(0) alone when the workers of the other live crews fill the
// cores: waking and parking helpers at every wait would then cost more
// than they add.
func (c *crew) run(job func(w int)) {
	crewJobs.Add(1)
	if c.n == 1 || crewWorkers.Load()-int32(c.n) >= c.cores {
		job(0)
		return
	}
	c.publish(job)
	job(0)
	c.wait(0, func() bool { return c.left.Load() == 0 })
}

// wait returns once ready holds; worker w polls it, then parks until a
// wake.
func (c *crew) wait(w int, ready func() bool) { c.await(&c.busy, w, ready) }

// wake rouses the workers parked in wait to check their conditions again.
// Call it after work that may make one hold.
func (c *crew) wake() { c.open(&c.busy) }

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
func (c *crew) publish(job func(w int)) {
	c.job = job
	c.left.Store(int32(c.n - 1))
	c.seq.Add(1)
	c.open(&c.idle)
}

func (c *crew) helper(w int) {
	defer c.wg.Done()
	var seen uint64
	for {
		c.await(&c.idle, w, func() bool { return c.seq.Load() != seen })
		seen = c.seq.Load()
		job := c.job
		if job == nil {
			return
		}
		job(w)
		if c.left.Add(-1) == 0 {
			c.wake()
		}
	}
}

// await returns once ready holds: worker w polls it, then parks on g until
// an open of g finds it false no longer.
func (c *crew) await(g *gate, w int, ready func() bool) {
	if ready() {
		return // no wait, so nothing learnt about waits
	}
	polls := c.polls(w)
	for i := 0; i < polls; i++ {
		if ready() {
			c.budgets[w].ended(polls, true)
			return
		}
	}
	if polls > 0 {
		c.budgets[w].ended(polls, false)
	}
	c.mu.Lock()
	g.parked.Add(1)
	for !ready() {
		g.cond.Wait()
	}
	g.parked.Add(-1)
	c.mu.Unlock()
}

// open wakes the workers parked on g. A worker counts itself parked before
// it last checks its condition, and the caller made the condition true
// before open reads the count, so one of the two sees the other.
func (c *crew) open(g *gate) {
	if g.parked.Load() > 0 {
		c.mu.Lock()
		g.cond.Broadcast()
		c.mu.Unlock()
	}
}
