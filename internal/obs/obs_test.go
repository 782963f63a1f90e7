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
	if got := c.HitRatio(BufferHit, BufferMiss); got != 0.75 {
		t.Fatalf("hit ratio = %v, want 0.75", got)
	}
	if c.HitRatio(OSCacheHit, OSCacheMiss) != 0 {
		t.Fatal("idle hit ratio should be 0")
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
	h := NewHistogram([]time.Duration{time.Millisecond, time.Second})
	h.Observe(time.Microsecond)      // bucket 0
	h.Observe(10 * time.Millisecond) // bucket 1
	h.Observe(time.Minute)           // +Inf
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	cum := h.Cumulative()
	want := []uint64{1, 2, 3}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
	if h.Sum() != time.Microsecond+10*time.Millisecond+time.Minute {
		t.Fatalf("sum = %v", h.Sum())
	}
	if len(NewHistogram(nil).Bounds()) != len(DefaultLatencyBuckets) {
		t.Fatal("default buckets not used")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zero")
	}
	// 8 observations in (10ms, 20ms], 2 in (20ms, 40ms].
	for i := 0; i < 8; i++ {
		h.Observe(15 * time.Millisecond)
	}
	h.Observe(30 * time.Millisecond)
	h.Observe(35 * time.Millisecond)

	// p50: rank 5 of 10 lands in the (10, 20] bucket, 5/8 of the way through
	// its 8 observations → 10ms + 0.625*10ms.
	if got, want := h.Quantile(0.5), 10*time.Millisecond+time.Duration(0.625*float64(10*time.Millisecond)); got != want {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	// p90: rank 9 crosses into the (20, 40] bucket halfway through its 2
	// observations → 20ms + 0.5*20ms.
	if got, want := h.Quantile(0.9), 30*time.Millisecond; got != want {
		t.Fatalf("p90 = %v, want %v", got, want)
	}
	// q clamps: out-of-range values behave as 0 and 1.
	if h.Quantile(-3) > h.Quantile(0) || h.Quantile(7) != h.Quantile(1) {
		t.Fatal("q not clamped to [0, 1]")
	}
	// A rank in the +Inf bucket reports the largest finite bound.
	h.Observe(time.Minute)
	if got := h.Quantile(1); got != 40*time.Millisecond {
		t.Fatalf("+Inf rank = %v, want the largest finite bound", got)
	}
}
