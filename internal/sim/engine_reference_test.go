package sim

import (
	"sort"
	"testing"
)

// TestEngineMatchesSortedReference checks the arrival list, the hand-written
// heap and inline continuation against the definition of the dispatch
// order: always the pending event that is first under a stable sort on time,
// i.e. earliest first and FIFO among events of one instant. Times are drawn
// from a handful of values so ties are the common case. Roots go in through
// Arrive or At in random time order, and callbacks schedule further events —
// some for the current instant, some as arrivals — while the queue is being
// drained. Many callbacks end by handing on to a successor, which they either
// Schedule or, when Continue allows, run inline; the reference always queues
// it. Each dispatch must run the reference's event at its due time with Steps
// counting it, and Pending must equal the reference queue's length once the
// callback has scheduled its children, arrivals included.
func TestEngineMatchesSortedReference(t *testing.T) {
	type pending struct {
		at    Time
		id    int
		depth int
	}
	// plan is what an event's callback does, decided from the event alone.
	type plan struct {
		delays []Duration // children, scheduled in order
		arrive []bool     // which children go in through Arrive
		succ   bool       // hand on to a successor after delay
		delay  Duration
		inline bool // try Continue before Schedule
	}
	var inlined, declined int // Continue's answers over all seeds
	for seed := uint64(1); seed <= 300; seed++ {
		planFor := func(id, depth int) plan {
			if depth >= 3 {
				return plan{}
			}
			r := NewRand(seed<<20 ^ uint64(id))
			p := plan{delays: make([]Duration, r.Intn(4))}
			p.arrive = make([]bool, len(p.delays))
			for i := range p.delays {
				p.delays[i] = Duration(r.Intn(3))
				p.arrive[i] = r.Intn(4) == 0
			}
			p.succ, p.delay, p.inline = r.Intn(3) != 0, Duration(r.Intn(3)), r.Intn(4) != 0
			return p
		}
		r := NewRand(seed)
		roots := make([]Time, 1+r.Intn(40))
		rootArrives := make([]bool, len(roots))
		for i := range roots {
			roots[i] = Time(r.Intn(6))
			rootArrives[i] = r.Intn(5) != 0
		}

		var got []int
		var gotPending []int // eng.Pending() once each callback has scheduled its children
		var dueAt []Time     // by event id
		eng := NewEngine()
		var run func(id, depth int)
		add := func(at Time, depth int, arrive bool) {
			id := len(dueAt)
			dueAt = append(dueAt, at)
			fn := func() { run(id, depth) }
			if arrive {
				eng.Arrive(at, fn)
			} else {
				eng.At(at, fn)
			}
		}
		run = func(id, depth int) {
			for {
				if eng.Now() != dueAt[id] {
					t.Fatalf("seed %d: event %d due at %v ran at %v", seed, id, dueAt[id], eng.Now())
				}
				got = append(got, id)
				if eng.Steps() != uint64(len(got)) {
					t.Fatalf("seed %d: Steps %d at dispatch %d", seed, eng.Steps(), len(got))
				}
				p := planFor(id, depth)
				for i, d := range p.delays {
					add(eng.Now().Add(d), depth+1, p.arrive[i])
				}
				gotPending = append(gotPending, eng.Pending())
				if !p.succ {
					return
				}
				next := len(dueAt)
				dueAt = append(dueAt, eng.Now().Add(p.delay))
				if !p.inline || !eng.Continue(p.delay) {
					if p.inline {
						declined++
					}
					eng.Schedule(p.delay, func() { run(next, depth+1) })
					return
				}
				inlined++
				id, depth = next, depth+1
			}
		}
		for i, at := range roots {
			add(at, 0, rootArrives[i])
		}
		if eng.Pending() != len(roots) {
			t.Fatalf("seed %d: Pending %d before Run, %d scheduled", seed, eng.Pending(), len(roots))
		}
		eng.Run()

		var want, wantPending []int
		var queue []pending
		nextID := 0
		for _, at := range roots {
			queue = append(queue, pending{at: at, id: nextID})
			nextID++
		}
		for len(queue) > 0 {
			// Appends are in scheduling order, so a stable sort on time
			// alone orders the queue by (at, seq).
			sort.SliceStable(queue, func(i, j int) bool { return queue[i].at < queue[j].at })
			ev := queue[0]
			queue = queue[1:]
			want = append(want, ev.id)
			p := planFor(ev.id, ev.depth)
			for _, d := range p.delays {
				queue = append(queue, pending{at: ev.at.Add(d), id: nextID, depth: ev.depth + 1})
				nextID++
			}
			wantPending = append(wantPending, len(queue))
			if p.succ {
				queue = append(queue, pending{at: ev.at.Add(p.delay), id: nextID, depth: ev.depth + 1})
				nextID++
			}
		}

		if len(got) != len(want) || eng.Steps() != uint64(len(want)) || eng.Pending() != 0 {
			t.Fatalf("seed %d: dispatched %d events (Steps %d, Pending %d), reference %d", seed, len(got), eng.Steps(), eng.Pending(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d ran event %d, reference runs %d", seed, i, got[i], want[i])
			}
			if gotPending[i] != wantPending[i] {
				t.Fatalf("seed %d: after dispatch %d Pending is %d, reference queue holds %d", seed, i, gotPending[i], wantPending[i])
			}
		}
	}
	if inlined == 0 || declined == 0 {
		t.Fatalf("Continue ran %d successors inline and declined %d: both paths must be exercised", inlined, declined)
	}
}
