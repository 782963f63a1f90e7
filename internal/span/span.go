// Package span is the virtual-time span tracer: where internal/obs proves
// *that* counters moved, span proves *where virtual time went*. A Tracer
// records begin/end spans stamped with sim.Time, attributed to the query and
// page they concern, and causally linked across actors (a prefetch read →
// the executor hit that consumed it; an abandoned prefetch → the fallback
// synchronous read that paid for it) — the per-query stall breakdown the
// paper's evaluation figures rest on, reconstructable after the run instead
// of eyeballed from counters.
//
// The name: internal/trace is already taken by the paper's Algorithm 1
// access-trace construction (which pages a query touches); span is about
// execution timelines (when the executor waited, and on what).
//
// A Tracer is itself an obs.Recorder: instrumented layers emit each fact once,
// as an obs.Event, and the tracer turns the events its marks table names into
// zero-duration marks, taking query and time verbatim from the event as its
// stamp point set it (the replay tagger, pythia.System). Duration spans and
// the causal-link stash have no obs counterpart and are recorded directly.
// The serving tier keeps no timeline: its observability is the metrics hub's
// counters and histograms.
//
// Contract, mirroring obs.Recorder:
//
//   - Nil is off. Every method is nil-receiver safe and a nil *Tracer costs
//     each event site exactly one nil-check; replay timelines are bitwise
//     identical with tracing on or off (the tracer never schedules work).
//   - Zero allocation per event when enabled. Spans are value structs
//     appended to one slice (amortized growth; Reserve pre-sizes it), and
//     the causal-link stash is one map keyed by page. Hot-path methods are
//     annotated //pythia:noalloc and enforced by pythia-vet.
//   - Single-writer. A Tracer is not synchronized: the replay simulator is
//     single-threaded, and the serving tier holds no tracer.
package span

import (
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// Kind enumerates span types: the duration kinds, each an interval of virtual
// time, and Mark.
type Kind uint8

const (
	// QuerySpan covers a query's whole lifetime (start → finish). Its label
	// carries the query's ID string.
	QuerySpan Kind = iota
	// InferWait is the model-inference window that gates the prefetcher:
	// execution proceeds underneath it, prefetching begins at its end (§3.3).
	InferWait
	// ExecDiskWait is the executor blocked on a foreground device read — the
	// stall prefetching exists to remove. Covers the whole retry ladder when
	// fault injection is active.
	ExecDiskWait
	// ExecOSCopy is the kernel→user-space copy window a buffer miss pays
	// whether the page came from the OS cache or (after the read) the device.
	ExecOSCopy
	// ExecRetryWait is the executor's backoff window between failed device
	// read attempts (nested inside its ExecDiskWait).
	ExecRetryWait
	// PrefetchRead is one asynchronous prefetch read in flight, from issue to
	// arrival — disk time paid off the executor's critical path. A read
	// abandoned after retry exhaustion ends with Detail = DetailAbandoned.
	PrefetchRead
	// PrefetchRetryWait is the prefetcher's backoff window before retrying a
	// failed read.
	PrefetchRetryWait

	// Mark is a zero-duration annotation (Start == End): the timeline's view
	// of one obs event. Span.Event says which; the marks table says which
	// events get one.
	Mark

	// KindCount is the number of span kinds; it must remain last.
	KindCount
)

var kindNames = [KindCount]string{
	QuerySpan:         "query",
	InferWait:         "inference",
	ExecDiskWait:      "disk_wait",
	ExecOSCopy:        "os_copy",
	ExecRetryWait:     "retry_wait",
	PrefetchRead:      "prefetch_read",
	PrefetchRetryWait: "prefetch_retry_wait",
	Mark:              "mark",
}

// marks is the only place a timeline mark is defined: the obs events that
// belong on a timeline, the name each is exported under, and whether the mark
// takes the causal link stashed under its page (the PrefetchRead span that
// brought the page in, or was abandoned trying). An event with no entry
// leaves no mark. One exported name predates its obs kind's and is pinned by
// the goldens: inference_degrade.
var marks = [obs.KindCount]struct {
	name string
	link bool
}{
	obs.BufferHit:             {name: "buffer_hit"},
	obs.BufferMiss:            {name: "buffer_miss"},
	obs.BufferEvict:           {name: "buffer_evict"},
	obs.PrefetchHit:           {name: "prefetch_hit", link: true},
	obs.PrefetchWasted:        {name: "prefetch_wasted", link: true},
	obs.OSCacheHit:            {name: "oscache_hit"},
	obs.OSCacheMiss:           {name: "oscache_miss"},
	obs.OSCacheEvict:          {name: "oscache_evict"},
	obs.WindowStall:           {name: "window_stall"},
	obs.FallbackSyncRead:      {name: "fallback_sync_read", link: true},
	obs.InferenceDeadlineMiss: {name: "inference_degrade"},
}

// String returns the kind's snake_case name (stable: it is the event name
// exported to Perfetto for every duration span).
func (k Kind) String() string {
	if k < KindCount {
		return kindNames[k]
	}
	return "unknown"
}

// DetailAbandoned on a PrefetchRead span marks a read that ended in
// abandonment (retry exhaustion) rather than arrival.
const DetailAbandoned uint32 = 1

// SpanID indexes a span within its Tracer. It doubles as the causal-link
// handle and as the Perfetto flow-event ID.
type SpanID int32

// NoSpan is the absent-link sentinel.
const NoSpan SpanID = -1

// NoQuery marks a span not attributed to any query (mirrors obs.NoQuery).
const NoQuery int32 = -1

// Span is one recorded interval or mark. Marks have Start == End.
type Span struct {
	// Kind is the span type.
	Kind Kind
	// Event is the obs event a Mark is the view of (meaningless otherwise).
	Event obs.Kind
	// Query is the run-local query index the span belongs to, or NoQuery.
	Query int32
	// Page is the page concerned, or the zero PageID.
	Page storage.PageID
	// Start and End bound the span on the virtual timeline.
	Start, End sim.Time
	// Link is the causal predecessor span, or NoSpan.
	Link SpanID
	// Detail is kind-specific: DetailAbandoned on PrefetchRead, zero
	// otherwise.
	Detail uint32
	// Label optionally names the span (the query ID on QuerySpan).
	Label string
}

// Name is what the span is exported as: its label, else the marks table's
// name for a Mark, else its kind's.
func (s *Span) Name() string {
	switch {
	case s.Label != "":
		return s.Label
	case s.Kind == Mark:
		return marks[s.Event].name
	}
	return s.Kind.String()
}

// IsMark reports whether the span is the mark of obs event e.
func (s *Span) IsMark(e obs.Kind) bool { return s.Kind == Mark && s.Event == e }

// Dur returns the span's duration.
func (s *Span) Dur() sim.Duration { return s.End.Sub(s.Start) }

// Tracer records spans. The zero value is NOT ready: construct with New. A
// nil *Tracer is valid everywhere and records nothing.
type Tracer struct {
	spans []Span
	stash map[storage.PageID]SpanID // open causal links keyed by page
}

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{stash: make(map[storage.PageID]SpanID)}
}

// Reserve grows the span store to hold at least n spans, so a bounded run
// records with zero allocations (the allocs tests pre-size this way).
func (t *Tracer) Reserve(n int) {
	if t == nil || cap(t.spans) >= n {
		return
	}
	s := make([]Span, len(t.spans), n)
	copy(s, t.spans)
	t.spans = s
}

// Reset forgets all recorded spans and stashed links, keeping capacity, so a
// tracer can be reused across independent runs.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.spans = t.spans[:0]
	for k := range t.stash {
		delete(t.stash, k)
	}
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns the recorded spans in record order. The slice is the
// tracer's own store: treat it as read-only and do not record concurrently.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// push appends one span and returns its ID.
//
//pythia:noalloc
func (t *Tracer) push(s Span) SpanID {
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, s)
	return id
}

// Begin opens a span of query q at time at and returns its ID for End. Query
// and times are taken as given, here and in every method below: the tracer
// holds no clock and no current query, so zero is virtual time zero, never
// "now".
//
//pythia:noalloc
func (t *Tracer) Begin(k Kind, q int32, pg storage.PageID, at sim.Time) SpanID {
	if t == nil {
		return NoSpan
	}
	return t.push(Span{Kind: k, Query: q, Page: pg, Start: at, End: at, Link: NoSpan})
}

// BeginLabel is Begin with a label (e.g. the query ID on QuerySpan).
//
//pythia:noalloc
func (t *Tracer) BeginLabel(k Kind, label string, q int32, pg storage.PageID, at sim.Time) SpanID {
	if t == nil {
		return NoSpan
	}
	return t.push(Span{Kind: k, Query: q, Page: pg, Start: at, End: at, Link: NoSpan, Label: label})
}

// End closes span id at time at. Ending NoSpan (or any out-of-range ID) is a
// no-op, so call sites need no guards.
//
//pythia:noalloc
func (t *Tracer) End(id SpanID, at sim.Time) {
	if t == nil || id < 0 || int(id) >= len(t.spans) {
		return
	}
	t.spans[id].End = at
}

// EndDetail is End plus a kind-specific detail value (e.g. DetailAbandoned).
//
//pythia:noalloc
func (t *Tracer) EndDetail(id SpanID, at sim.Time, detail uint32) {
	if t == nil || id < 0 || int(id) >= len(t.spans) {
		return
	}
	t.spans[id].End = at
	t.spans[id].Detail = detail
}

// Complete records a span of query q whose bounds are both known.
//
//pythia:noalloc
func (t *Tracer) Complete(k Kind, q int32, pg storage.PageID, start, end sim.Time) SpanID {
	if t == nil {
		return NoSpan
	}
	return t.push(Span{Kind: k, Query: q, Page: pg, Start: start, End: end, Link: NoSpan})
}

// Record implements obs.Recorder: an event the marks table names becomes a
// zero-duration mark carrying the event's own query, page and time — it must
// arrive stamped — and, for the linking marks, the span stashed under its
// page. Every other event is ignored.
//
//pythia:noalloc
func (t *Tracer) Record(e obs.Event) {
	if t == nil || e.Kind >= obs.KindCount || marks[e.Kind].name == "" {
		return
	}
	link := NoSpan
	if marks[e.Kind].link {
		link = t.takeStash(e.Page)
	}
	t.push(Span{Kind: Mark, Event: e.Kind, Query: e.Query, Page: e.Page, Start: e.At, End: e.At, Link: link})
}

// Stash parks an open causal link under a page, for a later consumer that
// only knows the page: the prefetcher stashes its PrefetchRead span when the
// page lands (or is abandoned), and Record takes it when the event that
// consumes the page (hit, wasted eviction, fallback read) arrives.
//
//pythia:noalloc
func (t *Tracer) Stash(pg storage.PageID, id SpanID) {
	if t == nil || id == NoSpan {
		return
	}
	t.stash[pg] = id
}

// takeStash removes and returns the link stashed under a page, or NoSpan.
//
//pythia:noalloc
func (t *Tracer) takeStash(pg storage.PageID) SpanID {
	if t == nil {
		return NoSpan
	}
	id, ok := t.stash[pg]
	if !ok {
		return NoSpan
	}
	delete(t.stash, pg)
	return id
}
