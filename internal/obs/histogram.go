package obs

import (
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the upper bounds (inclusive) of the serving-path
// latency histogram, chosen to straddle model inference times: sub-ms cache
// hits through multi-second cold predictions.
var DefaultLatencyBuckets = []time.Duration{
	100 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	2500 * time.Millisecond,
	10 * time.Second,
}

// Histogram is a fixed-bucket, lock-free duration histogram over
// DefaultLatencyBuckets in the Prometheus cumulative style: bucket i counts
// observations ≤ DefaultLatencyBuckets[i], with an implicit +Inf bucket.
// Observation is two atomic adds and never allocates.
type Histogram struct {
	counts []atomic.Uint64 // len(DefaultLatencyBuckets)+1; last is +Inf
	sum    atomic.Int64    // nanoseconds
	count  atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, len(DefaultLatencyBuckets)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(DefaultLatencyBuckets) && d > DefaultLatencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []time.Duration { return DefaultLatencyBuckets }

// Cumulative returns the cumulative per-bucket counts, one per bound plus a
// final +Inf entry, Prometheus-style.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}
