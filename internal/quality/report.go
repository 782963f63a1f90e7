package quality

import (
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
)

// EventCounts is what a replay did with one query's prefetches (or an
// aggregate's), as opposed to the set math of what was predicted. Each field
// is one obs.Kind read from the query's counter snapshot.
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

// eventCounts reads the quality kinds off one query's counters (nil reads
// as no events).
func eventCounts(c *obs.Counters) EventCounts {
	if c == nil {
		return EventCounts{}
	}
	return EventCounts{
		Prefetched:   c.Get(obs.PrefetchedIn),
		Useful:       c.Get(obs.PrefetchHit),
		Wasted:       c.Get(obs.PrefetchWasted),
		Fallbacks:    c.Get(obs.FallbackSyncRead),
		BufferMisses: c.Get(obs.BufferMiss),
	}
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

// Row is one replayed query as NewReport reads it.
type Row struct {
	ID string
	// Workload is the trained workload the query matched ("" = fallback).
	Workload string
	// Predicted is the issued prefetch set (replay's QueryResult.Prefetch);
	// Actual is the set of pages the executor's script needs.
	Predicted, Actual []storage.PageID
	// Counters is the query's event snapshot (replay's QueryResult.Counters;
	// nil reads as no events).
	Counters *obs.Counters
}

// QueryScore is one query's quality record: the exact set overlap plus what
// the run did with the prefetched pages.
type QueryScore struct {
	ID       string      `json:"id"`
	Workload string      `json:"workload,omitempty"`
	Set      Score       `json:"set"`
	Events   EventCounts `json:"events"`
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

// add folds one query's counts into the aggregate.
func (w *WorkloadReport) add(q QueryScore) {
	w.Queries++
	w.Set.add(q.Set)
	w.Events.add(q.Events)
}

// finish derives the ratios from the summed counts.
func (w *WorkloadReport) finish() {
	w.Precision = w.Set.Precision()
	w.Recall = w.Set.Recall()
	w.Coverage = w.Events.Coverage()
	w.WastedRatio = w.Events.WastedRatio()
}

// Report is the quality summary of one replay run.
type Report struct {
	// Queries holds one row per replayed query, in replay order.
	Queries []QueryScore `json:"queries"`
	// Workloads holds per-workload aggregates in first-seen order (the
	// fallback pseudo-workload, when present, has Workload "").
	Workloads []WorkloadReport `json:"workloads"`
	// Total aggregates everything.
	Total WorkloadReport `json:"total"`
	// Drift is the monitor's snapshot (state "ok" and zeros when drift
	// detection was never armed).
	Drift DriftStats `json:"drift"`
}

// NewReport scores a finished run: each row's exact set overlap and the
// quality kinds of its counters, per-workload and total aggregates, and the
// drift block of the monitor the caller fed with the run's plans (nil = drift
// off).
func NewReport(rows []Row, drift *Monitor) *Report {
	r := &Report{Total: WorkloadReport{Workload: "total"}, Drift: drift.Stats()}
	index := map[string]int{}
	for _, row := range rows {
		q := QueryScore{
			ID:       row.ID,
			Workload: row.Workload,
			Set:      ScoreSets(row.Predicted, row.Actual),
			Events:   eventCounts(row.Counters),
		}
		r.Queries = append(r.Queries, q)
		i, seen := index[q.Workload]
		if !seen {
			i = len(r.Workloads)
			index[q.Workload] = i
			r.Workloads = append(r.Workloads, WorkloadReport{Workload: q.Workload})
		}
		r.Workloads[i].add(q)
		r.Total.add(q)
	}
	for i := range r.Workloads {
		r.Workloads[i].finish()
	}
	r.Total.finish()
	return r
}
