package span

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// ExportChrome writes spans as Chrome trace-event JSON (the format Perfetto
// and chrome://tracing load). The encoding is hand-rolled — like the serve
// tier's Prometheus exposition — so field order, number formatting, and event
// order are fully deterministic: the same span slice always yields
// byte-for-byte identical output, which is what the golden tests pin.
//
// Layout: one process ("pythia"), one thread lane per actor — lane 1 for
// system-wide spans (no query), then per query an executor lane and a
// prefetcher lane. Duration spans are "X" complete events, except
// asynchronous prefetch reads and their retry waits, which are "b"/"e" async
// pairs so overlapping in-flight reads render as separate tracks. Marks are
// thread-scoped instants, and causal links are "s"/"f" flow arrows from the
// linked span's end to the mark.
//
// Timestamps are microseconds with nanosecond precision (Perfetto accepts
// fractional µs); virtual time 0 is trace time 0.
func ExportChrome(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")

	// Metadata first: process name, then a name per lane any span uses, in
	// lane order. Lanes are discovered from the spans themselves.
	maxQ := int32(-1)
	for i := range spans {
		if spans[i].Query > maxQ {
			maxQ = spans[i].Query
		}
	}
	used := make(map[int64]bool, 2*(int(maxQ)+1)+1)
	for i := range spans {
		used[laneOf(&spans[i])] = true
	}
	first := true
	meta := func(tid int64, name string) {
		sep(bw, &first)
		fmt.Fprintf(bw, "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}", tid, strconv.Quote(name))
	}
	sep(bw, &first)
	bw.WriteString("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"pythia\"}}")
	if used[laneSystem] {
		meta(laneSystem, "system")
	}
	for q := int32(0); q <= maxQ; q++ {
		if used[laneExec(q)] {
			meta(laneExec(q), fmt.Sprintf("q%d executor", q))
		}
		if used[lanePrefetch(q)] {
			meta(lanePrefetch(q), fmt.Sprintf("q%d prefetcher", q))
		}
	}

	for i := range spans {
		s := &spans[i]
		tid := laneOf(s)
		name := s.Name()
		switch {
		case s.Kind == Mark:
			// Instant mark, optionally the target of a flow arrow from the
			// span it links to.
			if s.Link != NoSpan && int(s.Link) < len(spans) {
				src := &spans[s.Link]
				sep(bw, &first)
				fmt.Fprintf(bw, "{\"ph\":\"s\",\"pid\":1,\"tid\":%d,\"id\":%d,\"cat\":\"flow\",\"name\":\"link\",\"ts\":%s}", laneOf(src), i, usec(int64(src.End)))
				sep(bw, &first)
				fmt.Fprintf(bw, "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":%d,\"id\":%d,\"cat\":\"flow\",\"name\":\"link\",\"ts\":%s}", tid, i, usec(int64(s.Start)))
			}
			sep(bw, &first)
			fmt.Fprintf(bw, "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"name\":%s,\"ts\":%s", tid, strconv.Quote(name), usec(int64(s.Start)))
			writeArgs(bw, s)
			bw.WriteString("}")
		case isAsync(s.Kind):
			// Overlapping in-flight reads: async begin/end pair keyed by the
			// span's own index, emitted adjacently (trace-event JSON does not
			// require chronological order).
			sep(bw, &first)
			fmt.Fprintf(bw, "{\"ph\":\"b\",\"pid\":1,\"tid\":%d,\"id\":%d,\"cat\":\"prefetch\",\"name\":%s,\"ts\":%s", tid, i, strconv.Quote(name), usec(int64(s.Start)))
			writeArgs(bw, s)
			bw.WriteString("}")
			sep(bw, &first)
			fmt.Fprintf(bw, "{\"ph\":\"e\",\"pid\":1,\"tid\":%d,\"id\":%d,\"cat\":\"prefetch\",\"name\":%s,\"ts\":%s}", tid, i, strconv.Quote(name), usec(int64(s.End)))
		default:
			sep(bw, &first)
			fmt.Fprintf(bw, "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":%s,\"ts\":%s,\"dur\":%s", tid, strconv.Quote(name), usec(int64(s.Start)), usec(int64(s.Dur())))
			writeArgs(bw, s)
			bw.WriteString("}")
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// The system lane carries spans with no query attribution; each query then
// owns an executor lane and a prefetcher lane.
const laneSystem int64 = 1

func laneExec(q int32) int64     { return 2 + 2*int64(q) }
func lanePrefetch(q int32) int64 { return 3 + 2*int64(q) }

// laneOf maps a span to its thread lane: inference windows, prefetch reads,
// retry waits, and window stalls belong to the query's prefetcher; every
// other query-attributed span belongs to its executor.
func laneOf(s *Span) int64 {
	if s.Query == NoQuery {
		return laneSystem
	}
	switch {
	case s.Kind == InferWait, s.Kind == PrefetchRead, s.Kind == PrefetchRetryWait, s.IsMark(obs.WindowStall):
		return lanePrefetch(s.Query)
	}
	return laneExec(s.Query)
}

// isAsync reports whether a kind renders as an async begin/end pair (spans
// that legitimately overlap on one lane).
func isAsync(k Kind) bool { return k == PrefetchRead || k == PrefetchRetryWait }

// writeArgs appends the span's attribution as a trace-event args object:
// query index, page, kind-specific detail, and causal link, each only when
// meaningful, in fixed order.
func writeArgs(bw *bufio.Writer, s *Span) {
	bw.WriteString(",\"args\":{")
	comma := false
	field := func() {
		if comma {
			bw.WriteByte(',')
		}
		comma = true
	}
	if s.Query != NoQuery {
		field()
		fmt.Fprintf(bw, "\"q\":%d", s.Query)
	}
	if s.Page != (storage.PageID{}) {
		field()
		fmt.Fprintf(bw, "\"page\":%s", strconv.Quote(s.Page.String()))
	}
	if s.Detail != 0 {
		field()
		fmt.Fprintf(bw, "\"detail\":%d", s.Detail)
	}
	if s.Link != NoSpan {
		field()
		fmt.Fprintf(bw, "\"link\":%d", s.Link)
	}
	bw.WriteByte('}')
}

// sep writes the inter-event separator (",\n" after the first event).
func sep(bw *bufio.Writer, first *bool) {
	if *first {
		*first = false
		return
	}
	bw.WriteString(",\n")
}

// usec formats a nanosecond count as microseconds with three decimals
// ("1234.567"), Perfetto's fractional-µs timestamp form, with no
// float rounding anywhere.
func usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// Compile-time guard that sim.Time converts to int64 nanoseconds the way
// usec assumes.
var _ = int64(sim.Time(0))
