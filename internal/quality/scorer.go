package quality

import (
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
)

// EventCounts is the event-stream view of prefetch quality for one query (or
// an aggregate): what the run actually experienced, as opposed to the set
// math of what was predicted. Each field mirrors exactly one obs.Kind, so
// the scorer's numbers reconcile 1:1 with the obs counters by construction —
// the reconciliation test pins the identity.
type EventCounts struct {
	// Prefetched counts obs.PrefetchedIn: pages the prefetcher brought into
	// the buffer pool.
	Prefetched uint64 `json:"prefetched"`
	// Useful counts obs.PrefetchHit: prefetched frames the executor
	// consumed.
	Useful uint64 `json:"useful"`
	// Wasted counts obs.PrefetchWasted: prefetched frames evicted before any
	// use.
	Wasted uint64 `json:"wasted"`
	// Fallbacks counts obs.FallbackSyncRead: abandoned prefetches the
	// executor had to read synchronously.
	Fallbacks uint64 `json:"fallback_sync_reads"`
	// BufferMisses counts obs.BufferMiss: executor requests that missed the
	// pool (a prefetch hit is a buffer hit, so Useful and BufferMisses are
	// disjoint).
	BufferMisses uint64 `json:"buffer_misses"`
}

func (e *EventCounts) add(o EventCounts) {
	e.Prefetched += o.Prefetched
	e.Useful += o.Useful
	e.Wasted += o.Wasted
	e.Fallbacks += o.Fallbacks
	e.BufferMisses += o.BufferMisses
}

// Coverage is Useful/(Useful+BufferMisses): the fraction of would-be buffer
// misses the prefetcher converted into hits. 0 with no data.
func (e EventCounts) Coverage() float64 {
	d := e.Useful + e.BufferMisses
	if d == 0 {
		return 0
	}
	return float64(e.Useful) / float64(d)
}

// WastedRatio is Wasted/Prefetched: the fraction of prefetch I/O the
// executor never used before eviction. 0 with no data.
func (e EventCounts) WastedRatio() float64 {
	if e.Prefetched == 0 {
		return 0
	}
	return float64(e.Wasted) / float64(e.Prefetched)
}

// QueryScore is one query's quality record: the exact set overlap fixed at
// registration, plus the event counts accumulated while the query replayed.
type QueryScore struct {
	ID       string      `json:"id"`
	Workload string      `json:"workload,omitempty"`
	Set      Score       `json:"set"`
	Events   EventCounts `json:"events"`

	wl *workloadAgg
}

// workloadAgg accumulates one workload's totals across registered queries.
type workloadAgg struct {
	name    string
	queries int
	set     Score
	events  EventCounts
}

// Scorer scores one replay run (or a sequence of runs sharing one report):
// the harness registers every query's predicted and actual page sets in
// replay order, wires the scorer into the run's obs recorder chain, and
// feeds each plan's serialized tokens to the drift monitor. Registration
// allocates; Record and ObservePlan do not. Scorer is single-threaded, like
// the replay engine it observes.
type Scorer struct {
	opts      Options
	queries   []QueryScore
	workloads []*workloadAgg
	index     map[string]*workloadAgg
	monitor   *Monitor
	rec       obs.Recorder
	runBase   int
}

// NewScorer returns an empty scorer. Options configure the drift detector
// armed later by SetBaseline.
func NewScorer(o Options) *Scorer {
	return &Scorer{opts: o, index: map[string]*workloadAgg{}}
}

// SetBaseline arms drift detection against a frozen training profile (nil
// leaves it off).
func (s *Scorer) SetBaseline(base *Profile) { s.monitor = NewMonitor(base, s.opts) }

// Bind attaches the recorder drift transitions surface on, as DriftWarning /
// DriftAlarm / DriftRecovered events (nil detaches).
func (s *Scorer) Bind(rec obs.Recorder) { s.rec = rec }

// StartRun marks the start of a new replay run: subsequent obs events carry
// run-local query indexes, which Record resolves against the queries
// registered after this call. pythia.System.Run calls it; harnesses driving
// replay directly do the same.
func (s *Scorer) StartRun() { s.runBase = len(s.queries) }

// Register records one query's ground truth before it replays: the issued
// (buffer-bounded) prediction and the pages the executor's script actually
// needs. Must be called once per query, in spec order, between StartRun and
// the replay. The exact set overlap is computed here, off the hot path.
func (s *Scorer) Register(id, workload string, predicted, actual []storage.PageID) {
	q := QueryScore{ID: id, Workload: workload, Set: ScoreSets(predicted, actual)}
	agg := s.index[workload]
	if agg == nil {
		agg = &workloadAgg{name: workload}
		s.index[workload] = agg
		s.workloads = append(s.workloads, agg)
	}
	agg.queries++
	agg.set.add(q.Set)
	q.wl = agg
	s.queries = append(s.queries, q)
}

// ObservePlan feeds one plan's serialized tokens to the drift monitor and
// surfaces any state transition as an obs event. No-op until SetBaseline arms
// the monitor.
//
//pythia:noalloc
func (s *Scorer) ObservePlan(tokens []string) {
	tr := s.monitor.Observe(tokens)
	if tr.Changed && s.rec != nil {
		s.rec.Record(obs.Event{Kind: DriftEventKind(tr.To), Query: obs.NoQuery})
	}
}

// DriftEventKind maps a post-transition state to its obs event — shared by
// the replay scorer and the serve tier's per-replica monitors so both emit
// the same event vocabulary.
//
//pythia:noalloc
func DriftEventKind(to DriftState) obs.Kind {
	switch to {
	case DriftAlarm:
		return obs.DriftAlarm
	case DriftWarning:
		return obs.DriftWarning
	default:
		return obs.DriftRecovered
	}
}

// Record implements obs.Recorder: query-attributed prefetch-quality events
// land on the registered query (and its workload aggregate). Everything else
// passes through untouched — the scorer is an observer, never a filter.
//
//pythia:noalloc
func (s *Scorer) Record(e obs.Event) {
	if e.Query < 0 {
		return
	}
	i := s.runBase + int(e.Query)
	if i >= len(s.queries) {
		return
	}
	q := &s.queries[i]
	switch e.Kind {
	case obs.PrefetchedIn:
		q.Events.Prefetched++
		q.wl.events.Prefetched++
	case obs.PrefetchHit:
		q.Events.Useful++
		q.wl.events.Useful++
	case obs.PrefetchWasted:
		q.Events.Wasted++
		q.wl.events.Wasted++
	case obs.FallbackSyncRead:
		q.Events.Fallbacks++
		q.wl.events.Fallbacks++
	case obs.BufferMiss:
		q.Events.BufferMisses++
		q.wl.events.BufferMisses++
	}
}

// WorkloadReport is one workload's aggregate quality in a Report.
type WorkloadReport struct {
	Workload    string      `json:"workload"`
	Queries     int         `json:"queries"`
	Set         Score       `json:"set"`
	Precision   float64     `json:"precision"`
	Recall      float64     `json:"recall"`
	Coverage    float64     `json:"coverage"`
	WastedRatio float64     `json:"wasted_ratio"`
	Events      EventCounts `json:"events"`
}

// Report is the scorer's end-of-run summary.
type Report struct {
	// Queries holds one row per registered query, in replay order.
	Queries []QueryScore `json:"queries"`
	// Workloads holds per-workload aggregates in first-seen order (the
	// fallback pseudo-workload, when present, has Workload "").
	Workloads []WorkloadReport `json:"workloads"`
	// Total aggregates everything.
	Total WorkloadReport `json:"total"`
	// Drift is the detector snapshot (state "ok" with zero counters when
	// drift detection was never armed).
	Drift DriftStats `json:"drift"`
	// BaselineHash identifies the baseline the drift score was measured
	// against ("" when unarmed).
	BaselineHash string `json:"baseline_hash,omitempty"`
}

// workloadReport renders one aggregate.
func workloadReport(name string, queries int, set Score, ev EventCounts) WorkloadReport {
	return WorkloadReport{
		Workload:    name,
		Queries:     queries,
		Set:         set,
		Precision:   set.Precision(),
		Recall:      set.Recall(),
		Coverage:    ev.Coverage(),
		WastedRatio: ev.WastedRatio(),
		Events:      ev,
	}
}

// Report assembles the summary. Call it after the run(s) complete.
func (s *Scorer) Report() *Report {
	r := &Report{Queries: s.queries, Drift: s.monitor.Stats()}
	var totSet Score
	var totEv EventCounts
	totQ := 0
	for _, agg := range s.workloads {
		r.Workloads = append(r.Workloads, workloadReport(agg.name, agg.queries, agg.set, agg.events))
		totSet.add(agg.set)
		totEv.add(agg.events)
		totQ += agg.queries
	}
	r.Total = workloadReport("total", totQ, totSet, totEv)
	if s.monitor != nil {
		r.BaselineHash = s.monitor.Baseline().HashString()
	}
	return r
}
