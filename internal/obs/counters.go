package obs

import "sync/atomic"

// Counters is a fixed array of per-kind event totals. It is the cheapest
// Recorder: one array increment per event, no allocation, not synchronized —
// correct for the single-threaded replay simulator. Use AtomicCounters where
// multiple goroutines record.
//
// The zero value is ready to use.
type Counters [KindCount]uint64

// Record implements Recorder.
//
//pythia:noalloc
func (c *Counters) Record(e Event) {
	if e.Kind < KindCount {
		c[e.Kind]++
	}
}

// Get returns the total for one kind.
func (c *Counters) Get(k Kind) uint64 {
	if k < KindCount {
		return c[k]
	}
	return 0
}

// Reset zeroes every counter.
func (c *Counters) Reset() { *c = Counters{} }

// Map renders the non-zero counters keyed by kind name, for JSON surfaces
// and test failure messages.
func (c *Counters) Map() map[string]uint64 {
	out := make(map[string]uint64)
	for k := Kind(0); k < KindCount; k++ {
		if c[k] != 0 {
			out[k.String()] = c[k]
		}
	}
	return out
}

// AtomicCounters is Counters for concurrent recorders (the HTTP serving
// path): one atomic add per event, no allocation.
//
// The zero value is ready to use.
type AtomicCounters [KindCount]atomic.Uint64

// Record implements Recorder.
//
//pythia:noalloc
func (c *AtomicCounters) Record(e Event) {
	if e.Kind < KindCount {
		c[e.Kind].Add(1)
	}
}

// Get returns the total for one kind.
func (c *AtomicCounters) Get(k Kind) uint64 {
	if k < KindCount {
		return c[k].Load()
	}
	return 0
}

// Snapshot copies the current totals into a plain Counters value.
func (c *AtomicCounters) Snapshot() Counters {
	var out Counters
	for i := range c {
		out[i] = c[i].Load()
	}
	return out
}
