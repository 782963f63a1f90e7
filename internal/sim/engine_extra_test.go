package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEnginePending(t *testing.T) {
	e := NewEngine()
	if e.Pending() != 0 {
		t.Fatal("fresh engine has pending events")
	}
	e.Schedule(time.Millisecond, func() {})
	e.Schedule(2*time.Millisecond, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatal("events remained after Run")
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	for name, call := range map[string]func(*Engine){
		"Schedule": func(e *Engine) { e.Schedule(-time.Second, func() {}) },
		"Continue": func(e *Engine) { e.Continue(-time.Second) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a negative delay did not panic", name)
				}
			}()
			call(NewEngine())
		}()
	}
}

// TestEngineContinueYieldsTies spells out Continue's rule: a callback's
// successor runs inline only when every pending event, arrivals included, is
// due strictly later; at a tie the older event goes first.
func TestEngineContinueYieldsTies(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Arrive(Time(3*time.Millisecond), func() { order = append(order, "arrival") })
	e.At(Time(5*time.Millisecond), func() { order = append(order, "event") })
	e.At(0, func() {
		order = append(order, "step 0")
		if !e.Continue(2 * time.Millisecond) {
			t.Fatal("Continue declined with nothing due before 2ms")
		}
		if e.Now() != Time(2*time.Millisecond) || e.Steps() != 2 {
			t.Fatalf("after Continue: Now %v, Steps %d; want 2ms, 2", e.Now(), e.Steps())
		}
		order = append(order, "step 1")
		if e.Continue(time.Millisecond) {
			t.Fatal("Continue ran inline at a tie with a pending arrival")
		}
		e.Schedule(time.Millisecond, func() {
			order = append(order, "step 2")
			if e.Continue(2 * time.Millisecond) {
				t.Fatal("Continue ran inline at a tie with a pending event")
			}
		})
	})
	e.Run()
	want := "[step 0 step 1 arrival step 2 event]"
	if got := fmt.Sprint(order); got != want || e.Steps() != 5 {
		t.Fatalf("dispatched %s in %d steps, want %s in 5", got, e.Steps(), want)
	}
}

// Property: regardless of the (delay, order) mix scheduled, Run dispatches
// in non-decreasing time order and the clock ends at the latest event.
func TestEngineDispatchOrderProperty(t *testing.T) {
	if err := quick.Check(func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		var max Duration
		for _, d := range delays {
			delay := Duration(d) * time.Microsecond
			if delay > max {
				max = delay
			}
			e.Schedule(delay, func() { seen = append(seen, e.Now()) })
		}
		end := e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		if len(delays) > 0 && end != Time(max) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the disk never completes a read before its issue time plus
// latency, and per-channel completions never overlap beyond the channel
// count.
func TestDiskServiceProperty(t *testing.T) {
	if err := quick.Check(func(issues []uint16, workers8 uint8) bool {
		workers := int(workers8%7) + 1
		d := NewDisk(workers)
		sort.Slice(issues, func(i, j int) bool { return issues[i] < issues[j] })
		var completions []Time
		for _, at := range issues {
			issue := Time(Duration(at) * time.Microsecond)
			done := d.Read(issue, time.Millisecond)
			if done.Sub(issue) < time.Millisecond {
				return false
			}
			completions = append(completions, done)
			// With ascending issue times, at most `workers` reads may still
			// be in service when a new one is issued — so among all
			// completions, no more than `workers` may exceed this read's
			// completion minus the service latency.
			inService := 0
			for _, c := range completions {
				if c.After(done.Add(-time.Millisecond)) {
					inService++
				}
			}
			if inService > workers {
				return false
			}
		}
		return d.Reads() == uint64(len(issues))
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
