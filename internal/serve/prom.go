package serve

import (
	"fmt"
	"io"
	"strconv"

	"github.com/pythia-db/pythia/internal/obs"
)

// writePrometheus renders the full metrics surface in the Prometheus text
// exposition format (version 0.0.4): request counters, latency histograms,
// prediction outcomes, per-kind event totals, and derived per-level hit
// ratios. Output order is deterministic.
func (s *Server) writePrometheus(w io.Writer) {
	m := s.metrics

	fmt.Fprintln(w, "# HELP pythia_http_requests_total HTTP requests by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE pythia_http_requests_total counter")
	for _, row := range m.snapshotRequests() {
		fmt.Fprintf(w, "pythia_http_requests_total{endpoint=%q,code=%q} %d\n",
			row.Endpoint, strconv.Itoa(row.Code), row.Count)
	}

	fmt.Fprintln(w, "# HELP pythia_http_request_duration_seconds Request latency by endpoint.")
	fmt.Fprintln(w, "# TYPE pythia_http_request_duration_seconds histogram")
	endpoints, hists := m.histograms()
	for i, ep := range endpoints {
		h := hists[i]
		cum := h.Cumulative()
		for j, bound := range h.Bounds() {
			fmt.Fprintf(w, "pythia_http_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, formatFloat(bound.Seconds()), cum[j])
		}
		fmt.Fprintf(w, "pythia_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n",
			ep, cum[len(cum)-1])
		fmt.Fprintf(w, "pythia_http_request_duration_seconds_sum{endpoint=%q} %s\n",
			ep, formatFloat(h.Sum().Seconds()))
		fmt.Fprintf(w, "pythia_http_request_duration_seconds_count{endpoint=%q} %d\n",
			ep, h.Count())
	}

	fmt.Fprintln(w, "# HELP pythia_predictions_total Served predictions by outcome.")
	fmt.Fprintln(w, "# TYPE pythia_predictions_total counter")
	total, fb := m.predictions.Load(), m.fallbacks.Load()
	fmt.Fprintf(w, "pythia_predictions_total{outcome=\"matched\"} %d\n", total-fb)
	fmt.Fprintf(w, "pythia_predictions_total{outcome=\"fallback\"} %d\n", fb)

	fmt.Fprintln(w, "# HELP pythia_predicted_pages_total Pages across all predicted sets.")
	fmt.Fprintln(w, "# TYPE pythia_predicted_pages_total counter")
	fmt.Fprintf(w, "pythia_predicted_pages_total %d\n", m.predictedPages.Load())

	fmt.Fprintln(w, "# HELP pythia_events_total Cache-hierarchy and system events by kind.")
	fmt.Fprintln(w, "# TYPE pythia_events_total counter")
	snap := m.events.Snapshot()
	for k := obs.Kind(0); k < obs.KindCount; k++ {
		fmt.Fprintf(w, "pythia_events_total{kind=%q} %d\n", k.String(), snap.Get(k))
	}

	fmt.Fprintln(w, "# HELP pythia_buffer_hit_ratio Buffer pool hit ratio over recorded events.")
	fmt.Fprintln(w, "# TYPE pythia_buffer_hit_ratio gauge")
	fmt.Fprintf(w, "pythia_buffer_hit_ratio %s\n", formatFloat(snap.HitRatio(obs.BufferHit, obs.BufferMiss)))
	fmt.Fprintln(w, "# HELP pythia_oscache_hit_ratio OS page cache hit ratio over recorded events.")
	fmt.Fprintln(w, "# TYPE pythia_oscache_hit_ratio gauge")
	fmt.Fprintf(w, "pythia_oscache_hit_ratio %s\n", formatFloat(snap.HitRatio(obs.OSCacheHit, obs.OSCacheMiss)))

	fmt.Fprintln(w, "# HELP pythia_workloads Trained workloads loaded in the server.")
	fmt.Fprintln(w, "# TYPE pythia_workloads gauge")
	fmt.Fprintf(w, "pythia_workloads %d\n", len(s.inf.Workloads()))

	params := 0
	for _, tw := range s.inf.Workloads() {
		params += tw.Pred.ParamCount()
	}
	fmt.Fprintln(w, "# HELP pythia_model_params Total trained model parameters (one replica).")
	fmt.Fprintln(w, "# TYPE pythia_model_params gauge")
	fmt.Fprintf(w, "pythia_model_params %d\n", params)

	// Replica topology. Aggregated across replicas — no per-replica labels, so
	// the exposition shape is independent of -replicas; per-replica rows live
	// on /v1/admin/replicas.
	st := s.inf.Status()
	fmt.Fprintln(w, "# HELP pythia_replicas Model replicas in the serving generation.")
	fmt.Fprintln(w, "# TYPE pythia_replicas gauge")
	fmt.Fprintf(w, "pythia_replicas %d\n", len(st.Replicas))
	fmt.Fprintln(w, "# HELP pythia_model_generation Serving model generation (increments on reload).")
	fmt.Fprintln(w, "# TYPE pythia_model_generation gauge")
	fmt.Fprintf(w, "pythia_model_generation %d\n", st.Generation)
	fmt.Fprintln(w, "# HELP pythia_model_swaps_total Completed zero-downtime model swaps.")
	fmt.Fprintln(w, "# TYPE pythia_model_swaps_total counter")
	fmt.Fprintf(w, "pythia_model_swaps_total %d\n", st.Swaps)
	var replicaSheds uint64
	for _, r := range st.Replicas {
		replicaSheds += r.Shed
	}
	fmt.Fprintln(w, "# HELP pythia_replica_sheds_total Requests shed at a replica's bounded work queue.")
	fmt.Fprintln(w, "# TYPE pythia_replica_sheds_total counter")
	fmt.Fprintf(w, "pythia_replica_sheds_total %d\n", replicaSheds)

	fmt.Fprintln(w, "# HELP pythia_requests_shed_total Requests refused at the in-flight limit.")
	fmt.Fprintln(w, "# TYPE pythia_requests_shed_total counter")
	fmt.Fprintf(w, "pythia_requests_shed_total %d\n", m.sheds.Load())

	fmt.Fprintln(w, "# HELP pythia_inference_timeouts_total Inferences that exceeded the request timeout.")
	fmt.Fprintln(w, "# TYPE pythia_inference_timeouts_total counter")
	fmt.Fprintf(w, "pythia_inference_timeouts_total %d\n", m.timeouts.Load())

	fmt.Fprintln(w, "# HELP pythia_replica_failovers_total Requests rerouted past an unhealthy, saturated, or faulting replica to a ring successor.")
	fmt.Fprintln(w, "# TYPE pythia_replica_failovers_total counter")
	fmt.Fprintf(w, "pythia_replica_failovers_total %d\n", m.failovers.Load())

	// Prediction cache, summed across replicas. The families render whether
	// or not the cache is enabled (zeros when disabled) so the exposition
	// shape is independent of configuration.
	var pcHits, pcMisses, pcEvicts uint64
	var pcEntries, pcCap int
	for _, r := range st.Replicas {
		pcHits += r.CacheHits
		pcMisses += r.CacheMisses
		pcEvicts += r.CacheEvictions
		pcEntries += r.CacheEntries
		pcCap += r.CacheCapacity
	}
	fmt.Fprintln(w, "# HELP pythia_predcache_hits_total Prediction-cache hits (requests answered with zero inference).")
	fmt.Fprintln(w, "# TYPE pythia_predcache_hits_total counter")
	fmt.Fprintf(w, "pythia_predcache_hits_total %d\n", pcHits)
	fmt.Fprintln(w, "# HELP pythia_predcache_misses_total Prediction-cache misses (inference ran).")
	fmt.Fprintln(w, "# TYPE pythia_predcache_misses_total counter")
	fmt.Fprintf(w, "pythia_predcache_misses_total %d\n", pcMisses)
	fmt.Fprintln(w, "# HELP pythia_predcache_evictions_total Prediction-cache evictions at capacity.")
	fmt.Fprintln(w, "# TYPE pythia_predcache_evictions_total counter")
	fmt.Fprintf(w, "pythia_predcache_evictions_total %d\n", pcEvicts)
	fmt.Fprintln(w, "# HELP pythia_predcache_entries Prediction-cache resident entries.")
	fmt.Fprintln(w, "# TYPE pythia_predcache_entries gauge")
	fmt.Fprintf(w, "pythia_predcache_entries %d\n", pcEntries)
	fmt.Fprintln(w, "# HELP pythia_predcache_capacity Prediction-cache entry bound (0 = caching disabled).")
	fmt.Fprintln(w, "# TYPE pythia_predcache_capacity gauge")
	fmt.Fprintf(w, "pythia_predcache_capacity %d\n", pcCap)

	fmt.Fprintln(w, "# HELP pythia_replica_health Worst replica health state (0=healthy, 1=degraded, 2=probation, 3=quarantined).")
	fmt.Fprintln(w, "# TYPE pythia_replica_health gauge")
	healthValue, _ := worstHealthState(st)
	fmt.Fprintf(w, "pythia_replica_health %d\n", healthValue)

	// Prediction quality and workload drift. Like the prediction-cache
	// families the quality rows render unconditionally (zeros before any
	// feedback), so the exposition shape never depends on whether clients
	// report ground truth.
	q := s.qualitySnapshot()
	fmt.Fprintln(w, "# HELP pythia_quality_feedback_total Predictions scored against executor ground truth via /v1/feedback.")
	fmt.Fprintln(w, "# TYPE pythia_quality_feedback_total counter")
	fmt.Fprintf(w, "pythia_quality_feedback_total %d\n", q.Scored)
	fmt.Fprintln(w, "# HELP pythia_quality_precision Windowed micro-averaged precision of scored predictions (0 = no data).")
	fmt.Fprintln(w, "# TYPE pythia_quality_precision gauge")
	fmt.Fprintf(w, "pythia_quality_precision %s\n", formatFloat(q.Precision))
	fmt.Fprintln(w, "# HELP pythia_quality_recall Windowed micro-averaged recall of scored predictions (0 = no data).")
	fmt.Fprintln(w, "# TYPE pythia_quality_recall gauge")
	fmt.Fprintf(w, "pythia_quality_recall %s\n", formatFloat(q.Recall))

	drift := aggregateDrift(st)
	fmt.Fprintln(w, "# HELP pythia_drift_state Worst drift-detector state across replicas (0=ok, 1=warning, 2=alarm).")
	fmt.Fprintln(w, "# TYPE pythia_drift_state gauge")
	driftValue := 0
	for _, r := range st.Replicas {
		if r.Drift.StateValue > driftValue {
			driftValue = r.Drift.StateValue
		}
	}
	fmt.Fprintf(w, "pythia_drift_state %d\n", driftValue)
	fmt.Fprintln(w, "# HELP pythia_drift_score Max live-vs-baseline divergence (PSI) across replicas at the last evaluation.")
	fmt.Fprintln(w, "# TYPE pythia_drift_score gauge")
	fmt.Fprintf(w, "pythia_drift_score %s\n", formatFloat(drift.Score))
	fmt.Fprintln(w, "# HELP pythia_drift_evaluations_total Drift evaluations across replicas.")
	fmt.Fprintln(w, "# TYPE pythia_drift_evaluations_total counter")
	fmt.Fprintf(w, "pythia_drift_evaluations_total %d\n", drift.Evaluations)
	fmt.Fprintln(w, "# HELP pythia_drift_warnings_total Drift warning transitions across replicas.")
	fmt.Fprintln(w, "# TYPE pythia_drift_warnings_total counter")
	fmt.Fprintf(w, "pythia_drift_warnings_total %d\n", drift.Warnings)
	fmt.Fprintln(w, "# HELP pythia_drift_alarms_total Drift alarm transitions across replicas.")
	fmt.Fprintln(w, "# TYPE pythia_drift_alarms_total counter")
	fmt.Fprintf(w, "pythia_drift_alarms_total %d\n", drift.Alarms)
	fmt.Fprintln(w, "# HELP pythia_drift_recoveries_total Drift recoveries (alarm or warning back to ok) across replicas.")
	fmt.Fprintln(w, "# TYPE pythia_drift_recoveries_total counter")
	fmt.Fprintf(w, "pythia_drift_recoveries_total %d\n", drift.Recoveries)

	fmt.Fprintln(w, "# HELP pythia_draining Whether the server is draining for shutdown.")
	fmt.Fprintln(w, "# TYPE pythia_draining gauge")
	drain := 0
	if s.draining.Load() {
		drain = 1
	}
	fmt.Fprintf(w, "pythia_draining %d\n", drain)

	fmt.Fprintln(w, "# HELP pythia_uptime_seconds Seconds since the server started.")
	fmt.Fprintln(w, "# TYPE pythia_uptime_seconds gauge")
	fmt.Fprintf(w, "pythia_uptime_seconds %s\n", formatFloat(m.Uptime().Seconds()))

	b := m.Build()
	fmt.Fprintln(w, "# HELP pythia_build_info Build identity of the running binary (value is always 1).")
	fmt.Fprintln(w, "# TYPE pythia_build_info gauge")
	fmt.Fprintf(w, "pythia_build_info{go_version=%q,path=%q,revision=%q} 1\n",
		b.GoVersion, b.Path, b.Revision)
}

// formatFloat renders a float the way Prometheus expects (shortest exact
// decimal, no exponent surprises for the magnitudes we emit).
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
