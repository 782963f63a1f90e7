package sim

import (
	"sort"
	"testing"
)

// TestEngineMatchesSortedReference checks the register and the hand-written
// heap against the definition of the dispatch order: always the pending event
// that is first under a stable sort on time, i.e. earliest first and FIFO
// among events of one instant. Times are drawn from a handful of values so
// ties are the common case, and callbacks schedule further events — some for
// the current instant — while the queue is being drained. Pending must equal
// the reference queue's length after every dispatch, held event included.
func TestEngineMatchesSortedReference(t *testing.T) {
	type pending struct {
		at    Time
		id    int
		depth int
	}
	for seed := uint64(1); seed <= 300; seed++ {
		// spawn decides, from the event alone, what its callback schedules.
		spawn := func(id, depth int) []Duration {
			if depth >= 3 {
				return nil
			}
			r := NewRand(seed<<20 ^ uint64(id))
			delays := make([]Duration, r.Intn(4))
			for i := range delays {
				delays[i] = Duration(r.Intn(3))
			}
			return delays
		}
		r := NewRand(seed)
		roots := make([]Time, 1+r.Intn(40))
		for i := range roots {
			roots[i] = Time(r.Intn(6))
		}

		var got []int
		var gotPending []int // eng.Pending() as each callback returns
		eng := NewEngine()
		nextID := 0
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			id := nextID
			nextID++
			eng.At(at, func() {
				if eng.Now() != at {
					t.Fatalf("seed %d: event %d due at %v ran at %v", seed, id, at, eng.Now())
				}
				got = append(got, id)
				for _, d := range spawn(id, depth) {
					schedule(eng.Now().Add(d), depth+1)
				}
				gotPending = append(gotPending, eng.Pending())
			})
		}
		for _, at := range roots {
			schedule(at, 0)
		}
		if eng.Pending() != len(roots) {
			t.Fatalf("seed %d: Pending %d before Run, %d scheduled", seed, eng.Pending(), len(roots))
		}
		eng.Run()

		var want, wantPending []int
		var queue []pending
		nextID = 0
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
			for _, d := range spawn(ev.id, ev.depth) {
				queue = append(queue, pending{at: ev.at.Add(d), id: nextID, depth: ev.depth + 1})
				nextID++
			}
			wantPending = append(wantPending, len(queue))
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
}
