package sim

import "slices"

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
// Events known before the simulation starts (query arrivals) wait in a
// sorted list beside the heap, so the heap holds only what callbacks
// schedule; Run merges the list's head with the heap's top. A callback whose
// next event would be dispatched next anyway runs it inline (Continue).
type Engine struct {
	Clock    Clock
	pq       []Event // binary min-heap on Event.before, held by value
	arrivals []Event // sorted on Event.before; arrivals[head:] are pending
	head     int
	seq      uint64
	steps    uint64
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
// time.
//
//pythia:noalloc
func (e *Engine) At(t Time, fn func()) {
	if t.Before(e.Now()) {
		panic("sim: At with time in the past")
	}
	e.seq++
	e.push(Event{at: t, seq: e.seq, fn: fn})
}

// Arrive runs fn at absolute virtual time t, like At, but keeps the event in
// the arrival list instead of the heap. It suits events added up front,
// mostly in time order: each is inserted after every pending arrival due no
// later than t, which is its place under (time, sequence).
func (e *Engine) Arrive(t Time, fn func()) {
	if t.Before(e.Now()) {
		panic("sim: Arrive with time in the past")
	}
	e.seq++
	i := len(e.arrivals)
	for i > e.head && e.arrivals[i-1].at > t {
		i--
	}
	e.arrivals = slices.Insert(e.arrivals, i, Event{at: t, seq: e.seq, fn: fn})
}

// Continue stands in for a callback's last act, Schedule(delay, fn): it
// reports whether that event would be the next one dispatched and, if so,
// advances the clock to it and counts the step, so the caller runs fn's work
// inline instead. The event would carry the largest sequence number, so it
// runs next exactly when every pending event is due strictly later; at a
// same-instant tie the older event goes first and Continue reports false.
// Only the order of sequence numbers matters, so Continue takes none. A
// negative delay panics, as in Schedule.
//
//pythia:noalloc
func (e *Engine) Continue(delay Duration) bool {
	if delay < 0 {
		panic("sim: Continue with negative delay")
	}
	t := e.Now().Add(delay)
	if len(e.pq) > 0 && e.pq[0].at <= t || e.head < len(e.arrivals) && e.arrivals[e.head].at <= t {
		return false
	}
	e.Clock.now = t
	e.steps++
	return true
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

// Run dispatches events until none is pending and returns the final virtual
// time. The next event is the earlier of the arrival list's head and the
// heap's top.
//
//pythia:noalloc
func (e *Engine) Run() Time {
	for {
		var ev Event
		switch {
		case e.head < len(e.arrivals) && (len(e.pq) == 0 || e.arrivals[e.head].before(&e.pq[0])):
			ev = e.arrivals[e.head]
			e.arrivals[e.head] = Event{} // drop the callback reference
			e.head++
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

// Steps returns the number of events dispatched so far, inline continuations
// included; useful for tests and for asserting that simulations terminate.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of events currently queued, arrivals included.
func (e *Engine) Pending() int { return len(e.pq) + len(e.arrivals) - e.head }
