package span

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// QueryStall is one query's virtual-time attribution: where the executor's
// elapsed time went, and how much disk time the prefetcher paid off the
// critical path. Durations come straight from span bounds, so they reconcile
// exactly with the obs counters (DiskReads here == obs disk_read for the
// query, DiskBlocked == the summed ExecDiskWait spans, and so on).
type QueryStall struct {
	// Query is the run-local query index; Label the query's ID string (from
	// its QuerySpan label).
	Query int32
	Label string
	// Elapsed is the query's whole lifetime (its QuerySpan duration).
	Elapsed sim.Duration
	// DiskBlocked is executor time blocked on foreground device reads
	// (summed ExecDiskWait, retry ladders included).
	DiskBlocked sim.Duration
	// OSCopy is executor time spent in kernel→user page copies.
	OSCopy sim.Duration
	// RetryBackoff is the slice of DiskBlocked spent waiting between failed
	// attempts (summed ExecRetryWait; already included in DiskBlocked).
	RetryBackoff sim.Duration
	// PrefetchHidden is disk time the prefetcher absorbed for pages the
	// executor then consumed as buffer hits: the summed durations of the
	// PrefetchRead spans that prefetch_hit marks' links point at — the stall
	// time prefetching removed from the critical path.
	PrefetchHidden sim.Duration
	// Inference is the model-inference window gating the prefetcher.
	Inference sim.Duration
	// Event counts, for reconciliation against obs counters.
	DiskReads    uint64 // ExecDiskWait spans == obs disk_read
	OSCopies     uint64 // ExecOSCopy spans (one per buffer miss)
	PrefetchHits uint64 // prefetch_hit marks == obs prefetch_hit
	Fallbacks    uint64 // fallback_sync_read marks == obs fallback_sync_read
}

// ObjectStall aggregates the same attribution by database object.
type ObjectStall struct {
	Object         storage.ObjectID
	DiskBlocked    sim.Duration
	OSCopy         sim.Duration
	PrefetchHidden sim.Duration
	DiskReads      uint64
	OSCopies       uint64
	PrefetchHits   uint64
}

// Report is the stall-attribution summary built from a recorded timeline.
type Report struct {
	// Queries holds one entry per query index, dense from 0.
	Queries []QueryStall
	// Objects holds per-object aggregates sorted by ObjectID.
	Objects []ObjectStall
	// Total sums the per-query rows (Label empty, Query = NoQuery).
	Total QueryStall
}

// BuildReport derives the stall attribution from a span slice. It is a pure
// function of the spans, so a report built from a golden trace is itself
// golden.
func BuildReport(spans []Span) *Report {
	maxQ := int32(-1)
	for i := range spans {
		if spans[i].Query > maxQ {
			maxQ = spans[i].Query
		}
	}
	r := &Report{Queries: make([]QueryStall, maxQ+1)}
	for q := range r.Queries {
		r.Queries[q].Query = int32(q)
	}
	objs := make(map[storage.ObjectID]*ObjectStall)
	obj := func(id storage.ObjectID) *ObjectStall {
		if id == storage.InvalidObject {
			return nil
		}
		o := objs[id]
		if o == nil {
			o = &ObjectStall{Object: id}
			objs[id] = o
		}
		return o
	}

	for i := range spans {
		s := &spans[i]
		var q *QueryStall
		if s.Query >= 0 {
			q = &r.Queries[s.Query]
		}
		o := obj(s.Page.Object)
		switch s.Kind {
		case QuerySpan:
			if q != nil {
				q.Elapsed += s.Dur()
				if q.Label == "" {
					q.Label = s.Label
				}
			}
		case InferWait:
			if q != nil {
				q.Inference += s.Dur()
			}
		case ExecDiskWait:
			if q != nil {
				q.DiskBlocked += s.Dur()
				q.DiskReads++
			}
			if o != nil {
				o.DiskBlocked += s.Dur()
				o.DiskReads++
			}
		case ExecOSCopy:
			if q != nil {
				q.OSCopy += s.Dur()
				q.OSCopies++
			}
			if o != nil {
				o.OSCopy += s.Dur()
				o.OSCopies++
			}
		case ExecRetryWait:
			if q != nil {
				q.RetryBackoff += s.Dur()
			}
		case Mark:
			switch s.Event {
			case obs.PrefetchHit:
				var hidden sim.Duration
				if s.Link != NoSpan && int(s.Link) < len(spans) {
					hidden = spans[s.Link].Dur()
				}
				if q != nil {
					q.PrefetchHidden += hidden
					q.PrefetchHits++
				}
				if o != nil {
					o.PrefetchHidden += hidden
					o.PrefetchHits++
				}
			case obs.FallbackSyncRead:
				if q != nil {
					q.Fallbacks++
				}
			}
		}
	}

	// Collect-then-sort: map iteration order must not reach the output.
	r.Objects = make([]ObjectStall, 0, len(objs))
	for _, o := range objs {
		r.Objects = append(r.Objects, *o)
	}
	sort.Slice(r.Objects, func(i, j int) bool { return r.Objects[i].Object < r.Objects[j].Object })

	r.Total.Query = NoQuery
	for i := range r.Queries {
		q := &r.Queries[i]
		r.Total.Elapsed += q.Elapsed
		r.Total.DiskBlocked += q.DiskBlocked
		r.Total.OSCopy += q.OSCopy
		r.Total.RetryBackoff += q.RetryBackoff
		r.Total.PrefetchHidden += q.PrefetchHidden
		r.Total.Inference += q.Inference
		r.Total.DiskReads += q.DiskReads
		r.Total.OSCopies += q.OSCopies
		r.Total.PrefetchHits += q.PrefetchHits
		r.Total.Fallbacks += q.Fallbacks
	}
	return r
}

// WriteText renders the report as fixed-width text, one row per query and
// per object plus a totals row. name resolves object IDs to names (nil
// prints raw IDs). Output is fully deterministic.
func (r *Report) WriteText(w io.Writer, name func(storage.ObjectID) string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "Per-query stall attribution (virtual time):")
	fmt.Fprintf(bw, "  %-4s %-24s %14s %14s %14s %14s %14s %8s %8s %8s %8s\n",
		"q", "query", "elapsed", "disk_blocked", "os_copy", "pf_hidden", "inference",
		"reads", "copies", "pf_hits", "fallbk")
	for i := range r.Queries {
		q := &r.Queries[i]
		label := q.Label
		if label == "" {
			label = "-"
		}
		fmt.Fprintf(bw, "  %-4d %-24s %14s %14s %14s %14s %14s %8d %8d %8d %8d\n",
			q.Query, label, q.Elapsed, q.DiskBlocked, q.OSCopy, q.PrefetchHidden,
			q.Inference, q.DiskReads, q.OSCopies, q.PrefetchHits, q.Fallbacks)
	}
	t := &r.Total
	fmt.Fprintf(bw, "  %-4s %-24s %14s %14s %14s %14s %14s %8d %8d %8d %8d\n",
		"*", "total", t.Elapsed, t.DiskBlocked, t.OSCopy, t.PrefetchHidden,
		t.Inference, t.DiskReads, t.OSCopies, t.PrefetchHits, t.Fallbacks)

	fmt.Fprintln(bw, "")
	fmt.Fprintln(bw, "Per-object stall attribution:")
	fmt.Fprintf(bw, "  %-24s %14s %14s %14s %8s %8s %8s\n",
		"object", "disk_blocked", "os_copy", "pf_hidden", "reads", "copies", "pf_hits")
	for i := range r.Objects {
		o := &r.Objects[i]
		label := fmt.Sprintf("%d", o.Object)
		if name != nil {
			if n := name(o.Object); n != "" {
				label = n
			}
		}
		fmt.Fprintf(bw, "  %-24s %14s %14s %14s %8d %8d %8d\n",
			label, o.DiskBlocked, o.OSCopy, o.PrefetchHidden, o.DiskReads, o.OSCopies, o.PrefetchHits)
	}
	return bw.Flush()
}
