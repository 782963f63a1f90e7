package obs

import (
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/storage"
)

func TestKindNamesComplete(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < KindCount; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share name %q", prev, k, name)
		}
		seen[name] = k
	}
	if KindCount.String() != "unknown" {
		t.Fatal("out-of-range kind should stringify as unknown")
	}
}

func TestCountersRecordAndDerive(t *testing.T) {
	var c Counters
	for i := 0; i < 3; i++ {
		c.Record(Event{Kind: BufferHit})
	}
	c.Record(Event{Kind: BufferMiss})
	c.Record(Event{Kind: KindCount + 7}) // out of range: ignored, no panic
	if c.Get(BufferHit) != 3 || c.Get(BufferMiss) != 1 {
		t.Fatalf("counts wrong: %v", c.Map())
	}
	m := c.Map()
	if len(m) != 2 || m["buffer_hit"] != 3 {
		t.Fatalf("map wrong: %v", m)
	}
	c.Reset()
	if c != (Counters{}) {
		t.Fatal("reset did not zero")
	}
}

func TestCountersAllocFree(t *testing.T) {
	var c Counters
	var rec Recorder = &c
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Record(Event{Kind: DiskRead, Query: 3, Page: storage.PageID{Object: 1, Page: 9}})
	})
	if allocs != 0 {
		t.Fatalf("Counters.Record allocates %v/op", allocs)
	}
}

func TestAtomicCounters(t *testing.T) {
	var c AtomicCounters
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				c.Record(Event{Kind: OSCacheHit})
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.Get(OSCacheHit) != 4000 {
		t.Fatalf("atomic count = %d, want 4000", c.Get(OSCacheHit))
	}
	snap := c.Snapshot()
	if snap.Get(OSCacheHit) != 4000 {
		t.Fatal("snapshot mismatch")
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog()
	l.Record(Event{Kind: BufferHit, Query: 0, Page: storage.PageID{Object: 2, Page: 5}, At: 1000})
	l.Record(Event{Kind: DiskRead, Query: 1})
	if l.Len() != 2 {
		t.Fatalf("len=%d, want 2", l.Len())
	}
	if got := l.Events()[0]; got.Kind != BufferHit || got.Page.Page != 5 || got.At != 1000 {
		t.Fatalf("first event wrong: %+v", got)
	}
	if got := l.Events()[1].Kind; got != DiskRead {
		t.Fatalf("retained event wrong: %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	h.Observe(50 * time.Microsecond)  // bucket 0 (≤ 100µs)
	h.Observe(100 * time.Microsecond) // bucket 0: bounds are inclusive
	h.Observe(10 * time.Millisecond)  // bucket 4 (≤ 25ms)
	h.Observe(time.Minute)            // +Inf
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	cum := h.Cumulative()
	want := []uint64{2, 2, 2, 2, 3, 3, 3, 3, 3, 4}
	if len(cum) != len(want) || len(h.Bounds()) != len(DefaultLatencyBuckets) {
		t.Fatalf("cumulative = %v over %d bounds, want %v", cum, len(h.Bounds()), want)
	}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
	if h.Sum() != 150*time.Microsecond+10*time.Millisecond+time.Minute {
		t.Fatalf("sum = %v", h.Sum())
	}
}
