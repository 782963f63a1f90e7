package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"github.com/pythia-db/pythia/internal/metrics"
)

// Metric is one measured value. Segments holds the per-segment (or per-repeat)
// values behind a median, Samples the number of raw observations.
type Metric struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Samples  int       `json:"samples,omitempty"`
	Segments []float64 `json:"segments,omitempty"`
}

// metricSet collects metrics by name; units come from the definition tables so
// a name can never be emitted with two units.
type metricSet map[string]Metric

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEndDefs {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayerDefs {
		m[d.Name] = d.Unit
	}
	return m
}()

func (s metricSet) set(name string, v float64) {
	s.setFrom(name, v, 0, nil)
}

func (s metricSet) setFrom(name string, v float64, samples int, segments []float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not in the definition tables")
	}
	s[name] = Metric{Value: v, Unit: unit, Samples: samples, Segments: segments}
}

// Noise on a shared two-core box is slow and large: the machine moves between
// faster and slower states that last tens of seconds and differ by up to 50 %,
// so identical ten-second runs disagree by far more than any bound worth
// having, whatever statistic they report. What repeats much better is the
// ratio between the program's time and the time of a fixed reference loop run
// in between its operations, on the same goroutine. Every operation's latency
// is therefore scaled to the speed at which the loop takes nominalReference,
// the timed phase is cut into ten segments, and the reported value is the
// median of the ten. Both commits of a comparison are scaled by the same loop,
// so a real slow-down shows undiminished. README.md has the measurements.

// segments is how many pieces a timed phase is cut into.
const segments = 10

const (
	// nominalReference fixes the scale of reported times: they read as they
	// would on a machine where the reference loop takes exactly this long. It
	// is what the loop takes on the box this was written on (medians of 1.4 to
	// 1.7 ms under the four workloads), so that they read like wall-clock.
	nominalReference = 1500 * time.Microsecond
	// referenceEvery bounds what the reference loop costs a closed-loop
	// client to about 4 % of its time.
	referenceEvery = 20 * time.Millisecond
	// referenceWindow is how many runs of the loop one reading of the
	// machine's speed averages: a mean, because bursts of interference slow
	// an operation by their mean too; on recorded traces the mean of about
	// five samples tracks it best, and a median of them worse than one.
	referenceWindow = 5
)

// refTable is the part of the reference loop's working set that does not fit
// the core's own caches: 8 MiB, against 2 MiB of L2. Each goroutine that runs
// the loop has its own.
type refTable []uint64

// newRefTable touches every page, so that no run of the loop pays for the
// table's first use.
func newRefTable() refTable {
	t := make(refTable, 1<<20)
	for i := range t {
		t[i] = uint64(i)
	}
	return t
}

// mainTable belongs to the goroutine that runs the workloads: the sequential
// phases and the set-ups.
var mainTable = newRefTable()

type refNode struct {
	next *refNode
	pad  [6]uint64
}

var refSink atomic.Uint64

// loop runs a fixed amount of work and returns how long it took. It does, in
// about equal parts, the three things the program under test does: integer
// arithmetic on data in the core's own cache, scattered updates of memory that
// is not, and allocation of small linked objects into a map. The parts follow
// different sources of this box's noise — the core, the shared last-level
// cache and memory, and page faults and the collector — and no single one of
// them tracks all four workloads.
func (t refTable) loop() time.Duration {
	var table [8192]uint64
	x := uint64(1)
	t0 := time.Now()
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[(x>>33)%8192] += x
	}
	for i := 0; i < 30_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		t[(x>>33)%uint64(len(t))] += x
	}
	var head *refNode
	m := make(map[uint64]*refNode, 1024)
	for i := 0; i < 6000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		head = &refNode{next: head}
		m[x%4096] = head
	}
	d := time.Since(t0)
	refSink.Add(table[x%8192] + uint64(len(m)))
	return d
}

// scaled converts a measured duration to the nominal machine speed.
func scaled(d, ref time.Duration) float64 {
	return float64(d) * float64(nominalReference) / float64(ref)
}

// refClock is one closed-loop client's view of the machine's speed: the mean
// of its last referenceWindow runs of the loop, one more run whenever the
// latest is older than referenceEvery.
type refClock struct {
	table refTable
	at    time.Time
	last  [referenceWindow]time.Duration
	n     int
}

func (c *refClock) tick() time.Duration {
	if c.table == nil {
		c.table = newRefTable()
	}
	if time.Since(c.at) >= referenceEvery {
		c.last[c.n%referenceWindow] = c.table.loop()
		c.n++
		c.at = time.Now()
	}
	var sum time.Duration
	k := min(c.n, referenceWindow)
	for _, d := range c.last[:k] {
		sum += d
	}
	return sum / time.Duration(k)
}

// opSample is one verified operation: its latency and the reference loop's
// time next to it.
type opSample struct {
	lat time.Duration
	ref time.Duration
}

// segment is one piece of a timed phase.
type segment struct {
	ops []opSample
	dur time.Duration
}

// timedPhase runs the workload for total, one segment at a time. run(i, d)
// drives the workload for about d and returns its verified operations.
func timedPhase(total time.Duration, run func(i int, d time.Duration) []opSample) []segment {
	segs := make([]segment, segments)
	for i := range segs {
		t0 := time.Now()
		ops := run(i, total/segments)
		segs[i] = segment{ops: ops, dur: time.Since(t0)}
	}
	return segs
}

// reference is the machine's speed right now: the mean of referenceWindow runs
// of the loop.
func reference() time.Duration {
	var sum time.Duration
	for i := 0; i < referenceWindow; i++ {
		sum += mainTable.loop()
	}
	return sum / referenceWindow
}

// sequential runs op repeatedly for about d (at least once), the reference
// before and after each call: the shape of the train and replay phases. An op
// is scaled by the mean of the two references around it.
func sequential(d time.Duration, op func() time.Duration) []opSample {
	var ops []opSample
	before := reference()
	for start := time.Now(); len(ops) == 0 || time.Since(start) < d; {
		lat := op()
		after := reference()
		ops = append(ops, opSample{lat, (before + after) / 2})
		before = after
	}
	return ops
}

// summarize turns a timed phase into the three timing metrics: per segment the
// mean and p95 of the scaled latencies and the scaled completion rate, and over
// the segments the median. With fewer than twenty operations in a segment its
// p95 is its slowest operation. The mean, not the median, of a segment: on
// serve_hit, whose 90 µs round trip is mostly wake-ups, the median moved between
// identical runs by half as much again as the mean did (README.md, Noise).
func summarize(segs []segment, into metricSet) error {
	var means, p95s, rates []float64
	n := 0
	for _, s := range segs {
		if len(s.ops) == 0 {
			return fmt.Errorf("a segment of the timed phase completed no verified operation")
		}
		n += len(s.ops)
		lats := make([]float64, len(s.ops))
		refs := make([]float64, len(s.ops))
		for i, o := range s.ops {
			lats[i] = scaled(o.lat, o.ref) / 1e6
			refs[i] = float64(o.ref)
		}
		sort.Float64s(lats)
		means = append(means, mean(lats))
		p95s = append(p95s, quantile(lats, 0.95))
		rates = append(rates, float64(len(s.ops))/(scaled(s.dur, time.Duration(mean(refs)))/1e9))
	}
	into.setFrom("op_mean_ms", median(means), n, means)
	into.setFrom("op_p95_ms", median(p95s), n, p95s)
	into.setFrom("ops_per_s", median(rates), n, rates)
	return nil
}

// timedSetups runs setup at least n times and until budget is spent, so that a
// set-up of milliseconds is timed often enough for a steady median, with the
// reference before and after each, and reports the median scaled duration as
// setup_s.
func timedSetups(n int, budget time.Duration, into metricSet, setup func() error) error {
	var secs []float64
	before := reference()
	for start := time.Now(); len(secs) < n || time.Since(start) < budget; {
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		d := time.Since(t0)
		after := reference()
		secs = append(secs, scaled(d, (before+after)/2)/1e9)
		before = after
	}
	into.setFrom("setup_s", median(secs), len(secs), secs)
	return nil
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 { return metrics.Summarize(xs).Median }
func mean(xs []float64) float64   { return metrics.Summarize(xs).Mean }

// spread is the inter-quartile range of xs as a share of their median, the
// measure -compare uses to decide whether a difference is resolvable.
func spread(xs []float64) float64 {
	s := metrics.Summarize(xs)
	if s.Median == 0 {
		return 0
	}
	return (s.P75 - s.P25) / s.Median
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeIt reports the median duration of reps calls of fn.
func timeIt(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}
