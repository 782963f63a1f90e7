// Package obs is the runtime observability layer for the cache hierarchy:
// a cheap, allocation-free Recorder interface that the buffer pool, OS page
// cache, replay engine, the Pythia system and the serving tier emit typed events
// into. Every event names which level of the hierarchy it came from and,
// when the emitting layer knows it, which query and page it concerns — the
// per-level hit/miss/IO accounting that the paper's evaluation (and SeLeP's
// and GrASP's) is built on, available while a run executes instead of only
// as end-of-run aggregates.
//
// An Event is the one thing an instrumented layer emits. Everything that
// wants the same fact in another shape — the counters here, the span
// tracer's timeline marks, the quality scorer's event counts — is a Recorder
// on this stream, not a second emission beside it.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Every instrumented component holds a Recorder
//     interface field that defaults to nil; the hot path pays exactly one
//     nil-check per event site and performs no allocation.
//   - Zero allocation when enabled with a counting recorder. Event is a
//     small value struct; Record(Event) passes it on the stack, and Counters
//     only increments a fixed array. Event-log recorders may allocate
//     (amortized append) — that is an explicit opt-in.
//   - One writer by default. The replay simulator is single-threaded, so
//     Counters is not synchronized; the HTTP serving path uses
//     AtomicCounters.
package obs

import (
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// Kind enumerates the observable event types, grouped by the layer that
// emits them. The groups partition the event space: no occurrence is
// reported by two layers, so counter totals reconcile exactly with the
// legacy aggregate Stats structs.
type Kind uint8

const (
	// --- buffer pool (internal/buffer) ---

	// BufferHit: an executor request was served from the buffer pool.
	BufferHit Kind = iota
	// BufferMiss: an executor request had to read below the pool.
	BufferMiss
	// BufferInsert: a page was brought into the pool.
	BufferInsert
	// BufferEvict: a frame was replaced.
	BufferEvict
	// BufferInsertFailed: an insert was refused because every frame was
	// pinned (limited prefetching backing off).
	BufferInsertFailed
	// PrefetchedIn: a page was inserted into the pool by the prefetcher.
	PrefetchedIn
	// PrefetchHit: the executor hit a prefetched-but-not-yet-used frame —
	// a useful prefetch.
	PrefetchHit
	// PrefetchWasted: a prefetched frame was evicted before the executor
	// ever used it — wasted prefetch I/O.
	PrefetchWasted

	// --- OS page cache (internal/oscache) ---

	// OSCacheHit: a read (executor or prefetcher stream) was served from the
	// OS page cache.
	OSCacheHit
	// OSCacheMiss: a read went to the device.
	OSCacheMiss
	// OSReadaheadPage: the kernel fetched one page asynchronously via
	// readahead.
	OSReadaheadPage
	// OSCacheEvict: the OS cache evicted a page.
	OSCacheEvict

	// --- replay engine (internal/replay) ---

	// QueryStart: a query began executing.
	QueryStart
	// QueryFinish: a query completed its request script.
	QueryFinish
	// DiskRead: a foreground, executor-blocking disk read (the executor
	// missed both caches and waited for the device).
	DiskRead
	// PrefetchIssued: the prefetcher initiated one asynchronous read.
	PrefetchIssued
	// PrefetchPinned: a prefetched page landed in the pool and was pinned.
	PrefetchPinned
	// PrefetchSkipped: a prefetch was skipped (already buffered) or dropped
	// (pool full of pinned frames).
	PrefetchSkipped
	// WindowStall: the prefetcher had queued pages but the readahead window
	// R was full of pinned-or-inflight pages — the flow-control stall the
	// window parameter exists to create.
	WindowStall

	// --- fault injection and degradation (internal/fault, internal/replay) ---

	// DiskReadFailed: one device read attempt (foreground or prefetch)
	// failed transiently.
	DiskReadFailed
	// PrefetchRetried: the prefetcher scheduled a backoff retry for a
	// failed prefetch read.
	PrefetchRetried
	// PrefetchAbandoned: the prefetcher exhausted its retries and abandoned
	// the page; the executor will read it synchronously.
	PrefetchAbandoned
	// FallbackSyncRead: the executor served a page the prefetcher had
	// abandoned — the degradation path that converges to the no-prefetch
	// baseline.
	FallbackSyncRead
	// InferenceDeadlineMiss: model inference exceeded its virtual-time
	// budget and the query degraded to the no-prefetch path.
	InferenceDeadlineMiss

	// --- system (internal/pythia) ---

	// WorkloadMatched: an incoming query matched a trained workload and
	// Pythia engaged.
	WorkloadMatched
	// WorkloadFallback: no trained workload matched; the query ran on the
	// default path.
	WorkloadFallback
	// PrefetchLimited: a predicted page set exceeded the buffer-bounded
	// budget and was truncated (limited prefetching, §5.1).
	PrefetchLimited

	// --- serving tier (internal/serve) ---

	// PredCacheHit: a prediction request was answered from the plan-
	// fingerprint cache — zero inference ran.
	PredCacheHit
	// PredCacheMiss: the plan fingerprint was absent; inference ran.
	PredCacheMiss
	// PredCacheEvict: a cached prediction was evicted at capacity.
	PredCacheEvict
	// InferenceRun: one model-path inference completed for a request.
	InferenceRun
	// ReplicaDegraded: a pool replica's sliding error window crossed the
	// degraded threshold; it keeps serving but is one step from quarantine.
	ReplicaDegraded
	// ReplicaQuarantined: a replica crossed the quarantine threshold (or
	// failed a probation trial) and was removed from normal routing.
	ReplicaQuarantined
	// ReplicaProbe: a quarantined replica's backoff elapsed and one probe
	// request was admitted to test it.
	ReplicaProbe
	// ReplicaRecovered: a quarantined replica passed its probation trials and
	// rejoined normal routing.
	ReplicaRecovered
	// ReplicaFailover: a request moved past an unhealthy (or saturated, or
	// faulting) replica to the next replica on the hash ring.
	ReplicaFailover

	// QualityScored: one prediction was scored against ground truth — in
	// replay when a query is registered with the scorer, in serve when a
	// /v1/feedback report correlates with a prediction ID.
	QualityScored
	// DriftWarning: the live plan-token/fingerprint distribution crossed the
	// warn divergence threshold against the training baseline.
	DriftWarning
	// DriftAlarm: divergence crossed the alarm threshold — the live stream no
	// longer resembles the training distribution.
	DriftAlarm
	// DriftRecovered: the drift state machine stepped back down to ok after
	// its hysteresis cleared.
	DriftRecovered

	// KindCount is the number of event kinds; counter arrays are sized by
	// it. It must remain last.
	KindCount
)

var kindNames = [KindCount]string{
	BufferHit:             "buffer_hit",
	BufferMiss:            "buffer_miss",
	BufferInsert:          "buffer_insert",
	BufferEvict:           "buffer_evict",
	BufferInsertFailed:    "buffer_insert_failed",
	PrefetchedIn:          "prefetched_in",
	PrefetchHit:           "prefetch_hit",
	PrefetchWasted:        "prefetch_wasted",
	OSCacheHit:            "oscache_hit",
	OSCacheMiss:           "oscache_miss",
	OSReadaheadPage:       "os_readahead_page",
	OSCacheEvict:          "oscache_evict",
	QueryStart:            "query_start",
	QueryFinish:           "query_finish",
	DiskRead:              "disk_read",
	PrefetchIssued:        "prefetch_issued",
	PrefetchPinned:        "prefetch_pinned",
	PrefetchSkipped:       "prefetch_skipped",
	WindowStall:           "window_stall",
	DiskReadFailed:        "disk_read_failed",
	PrefetchRetried:       "prefetch_retried",
	PrefetchAbandoned:     "prefetch_abandoned",
	FallbackSyncRead:      "fallback_sync_read",
	InferenceDeadlineMiss: "inference_deadline_miss",
	WorkloadMatched:       "workload_matched",
	WorkloadFallback:      "workload_fallback",
	PrefetchLimited:       "prefetch_limited",
	PredCacheHit:          "predcache_hit",
	PredCacheMiss:         "predcache_miss",
	PredCacheEvict:        "predcache_evict",
	InferenceRun:          "inference_run",
	ReplicaDegraded:       "replica_degraded",
	ReplicaQuarantined:    "replica_quarantined",
	ReplicaProbe:          "replica_probe",
	ReplicaRecovered:      "replica_recovered",
	ReplicaFailover:       "replica_failover",
	QualityScored:         "quality_scored",
	DriftWarning:          "drift_warning",
	DriftAlarm:            "drift_alarm",
	DriftRecovered:        "drift_recovered",
}

// String returns the kind's snake_case name (stable: it is the label
// exported on the Prometheus metrics surface).
func (k Kind) String() string {
	if k < KindCount {
		return kindNames[k]
	}
	return "unknown"
}

// NoQuery marks an event not attributed to any query.
const NoQuery int32 = -1

// Event is one typed occurrence. Emitting layers fill what they know:
// buffer and oscache know only the page; each tier's stamp point (the replay
// tagger, pythia.System, the serve.Metrics hub) sets the query index and the
// time on what passes through it, and every consumer reads them verbatim.
type Event struct {
	// Kind is the event type.
	Kind Kind
	// Query is the run-local query index, or NoQuery.
	Query int32
	// Page is the page concerned, or the zero PageID.
	Page storage.PageID
	// At is the virtual time of the event (zero outside a simulation).
	At sim.Time
}

// Recorder receives events. Implementations must be cheap: Record sits on
// every page-request path of the replay engine. A nil Recorder means
// observability is off; every emitter nil-checks before calling.
type Recorder interface {
	Record(e Event)
}

// Multi fans one event out to several recorders (e.g. totals plus an event
// log). A nil entry is skipped.
type Multi []Recorder

// Record implements Recorder.
//
//pythia:noalloc
func (m Multi) Record(e Event) {
	for _, r := range m {
		if r != nil {
			r.Record(e)
		}
	}
}
