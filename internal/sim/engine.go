package sim

// Event is a unit of scheduled work on the virtual timeline.
type Event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func()
}

// before is the dispatch order: time, then scheduling order. Sequence
// numbers are unique, so the order is total and the heap's shape can never
// decide which of two events runs first.
func (ev *Event) before(o *Event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// Engine is a single-threaded discrete-event simulator. Actors (query
// replays, prefetch workers, the disk) schedule callbacks; Run dispatches
// them in timestamp order, advancing the shared Clock. Determinism comes from
// the (time, sequence) total order: two events at the same instant run in the
// order they were scheduled.
//
// The newest event waits in a one-slot register outside the heap. Most
// events a callback schedules are due before everything queued (a query's
// next step, a read's completion), so Run dispatches them from the register
// and never sifts them through the heap.
type Engine struct {
	Clock Clock
	next  Event   // the newest scheduled event, while held is set
	held  bool    // next holds an event
	pq    []Event // binary min-heap on Event.before, held by value
	seq   uint64
	steps uint64
}

// NewEngine returns an empty engine at the simulation epoch.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.Clock.Now() }

// Schedule runs fn after delay. A negative delay panics: events cannot be
// scheduled in the past.
func (e *Engine) Schedule(delay Duration, fn func()) {
	if delay < 0 {
		panic("sim: Schedule with negative delay")
	}
	e.At(e.Now().Add(delay), fn)
}

// At runs fn at absolute virtual time t, which must not precede the current
// time. The event takes the register; the one it displaces goes to the heap.
//
//pythia:noalloc
func (e *Engine) At(t Time, fn func()) {
	if t.Before(e.Now()) {
		panic("sim: At with time in the past")
	}
	if e.held {
		e.push(e.next)
	}
	e.seq++
	e.next, e.held = Event{at: t, seq: e.seq, fn: fn}, true
}

// push adds ev to the heap and sifts it up to its place.
//
//pythia:noalloc
func (e *Engine) push(ev Event) {
	e.pq = append(e.pq, ev)
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&e.pq[parent]) {
			break
		}
		e.pq[i] = e.pq[parent]
		i = parent
	}
	e.pq[i] = ev
}

// pop removes and returns the earliest event. The heap's last event is
// sifted down from the root: the hole at i takes its earlier child until the
// last event fits there.
//
//pythia:noalloc
func (e *Engine) pop() Event {
	top := e.pq[0]
	n := len(e.pq) - 1
	last := e.pq[n]
	e.pq[n] = Event{} // drop the callback reference
	e.pq = e.pq[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && e.pq[c+1].before(&e.pq[c]) {
			c++
		}
		if !e.pq[c].before(&last) {
			break
		}
		e.pq[i] = e.pq[c]
		i = c
	}
	if n > 0 {
		e.pq[i] = last
	}
	return top
}

// Run dispatches events until the queue is empty and returns the final
// virtual time. The held event carries the largest sequence number of all
// pending events, so it runs next exactly when it is before the heap's top.
//
//pythia:noalloc
func (e *Engine) Run() Time {
	for {
		var ev Event
		switch {
		case e.held && (len(e.pq) == 0 || e.next.before(&e.pq[0])):
			ev, e.next, e.held = e.next, Event{}, false
		case len(e.pq) > 0:
			ev = e.pop()
		default:
			return e.Now()
		}
		e.Clock.AdvanceTo(ev.at)
		e.steps++
		ev.fn()
	}
}

// Steps returns the number of events dispatched so far; useful for tests and
// for asserting that simulations terminate.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int {
	if e.held {
		return len(e.pq) + 1
	}
	return len(e.pq)
}
