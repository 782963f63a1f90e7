package serve

import (
	"fmt"
	"io"
	"strconv"

	"github.com/pythia-db/pythia/internal/obs"
)

// Prometheus metric types of the exposition.
const (
	counter   = "counter"
	gauge     = "gauge"
	histogram = "histogram"
)

// family is one metric family of the exposition: its samples are rendered
// under exactly one HELP/TYPE header, so the pairing holds by construction.
type family struct {
	name, typ, help string
	samples         []sample
}

// sample is one exposition line: name+suffix, optional rendered label set,
// value.
type sample struct{ suffix, labels, value string }

// writePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4), in table order.
func writePrometheus(w io.Writer, s *statsResponse) {
	for _, f := range families(s) {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, sm := range f.samples {
			fmt.Fprintf(w, "%s%s%s %s\n", f.name, sm.suffix, sm.labels, sm.value)
		}
	}
}

// families is the one table of everything /metrics prints, filled from one
// snapshot. The prediction-cache and quality families render zeros when the
// cache is off or no feedback has arrived, so the exposition's shape is
// independent of configuration and traffic.
func families(s *statsResponse) []family {
	var requests, latency, events []sample
	for _, r := range s.Requests {
		requests = append(requests, sample{labels: fmt.Sprintf(`{endpoint=%q,code="%d"}`, r.Endpoint, r.Code), value: num(r.Count)})
	}
	for _, l := range s.Latency {
		endpoint := fmt.Sprintf("{endpoint=%q}", l.Endpoint)
		for i, cum := range l.Cumulative {
			le := "+Inf"
			if i < len(l.Bounds) {
				le = num(l.Bounds[i].Seconds())
			}
			latency = append(latency, sample{"_bucket", fmt.Sprintf("{endpoint=%q,le=%q}", l.Endpoint, le), num(cum)})
		}
		latency = append(latency, sample{"_sum", endpoint, num(l.SumSeconds)}, sample{"_count", endpoint, num(l.Count)})
	}
	for k := obs.Kind(0); k < obs.KindCount; k++ {
		events = append(events, sample{labels: fmt.Sprintf("{kind=%q}", k.String()), value: num(s.EventCounts.Get(k))})
	}
	draining := 0
	if s.Draining {
		draining = 1
	}
	return []family{
		{"pythia_http_requests_total", counter, "HTTP requests by endpoint and status code.", requests},
		{"pythia_http_request_duration_seconds", histogram, "Request latency by endpoint.", latency},
		{"pythia_predictions_total", counter, "Served predictions by outcome.", []sample{
			{labels: `{outcome="matched"}`, value: num(s.Predictions - s.Fallbacks)},
			{labels: `{outcome="fallback"}`, value: num(s.Fallbacks)}}},
		{"pythia_predicted_pages_total", counter, "Pages across all predicted sets.", one(s.PredictedPages)},
		{"pythia_events_total", counter, "Cache-hierarchy and system events by kind.", events},
		{"pythia_workloads", gauge, "Trained workloads loaded in the server.", one(s.Workloads)},
		{"pythia_model_params", gauge, "Total trained model parameters.", one(s.ModelParams)},
		{"pythia_model_generation", gauge, "Serving model generation (increments on reload).", one(s.Generation)},
		{"pythia_model_swaps_total", counter, "Completed zero-downtime model swaps.", one(s.Swaps)},
		{"pythia_requests_shed_total", counter, "Requests answered 503 overloaded.", one(s.Shed)},
		{"pythia_inference_timeouts_total", counter, "Inferences that exceeded the request timeout.", one(s.Timeouts)},
		{"pythia_predcache_hits_total", counter, "Prediction-cache hits (requests answered with zero inference).", one(s.FleetCache.Hits)},
		{"pythia_predcache_misses_total", counter, "Prediction-cache misses (inference ran).", one(s.FleetCache.Misses)},
		{"pythia_predcache_evictions_total", counter, "Prediction-cache evictions at capacity.", one(s.FleetCache.Evictions)},
		{"pythia_predcache_entries", gauge, "Prediction-cache resident entries.", one(s.FleetCache.Entries)},
		{"pythia_predcache_capacity", gauge, "Prediction-cache entry bound (0 = caching disabled).", one(s.FleetCache.Capacity)},
		{"pythia_quality_feedback_total", counter, "Predictions scored against executor ground truth via /v1/feedback.", one(s.Quality.Scored)},
		{"pythia_quality_pages_total", counter, "Pages across scored feedback reports by set; precision over a window is increase(true_positive) / increase(predicted).", []sample{
			{labels: `{set="predicted"}`, value: num(s.QualityPages.Predicted)},
			{labels: `{set="actual"}`, value: num(s.QualityPages.Actual)},
			{labels: `{set="true_positive"}`, value: num(s.QualityPages.TruePos)}}},
		{"pythia_drift_state", gauge, "Drift-detector state (0=ok, 1=warning, 2=alarm).", one(s.Drift.StateValue)},
		{"pythia_drift_score", gauge, "Live-vs-baseline divergence (PSI) at the last evaluation.", one(s.Drift.Score)},
		{"pythia_drift_evaluations_total", counter, "Drift evaluations.", one(s.Drift.Evaluations)},
		{"pythia_draining", gauge, "Whether the server is draining for shutdown.", one(draining)},
		{"pythia_uptime_seconds", gauge, "Seconds since the server started.", one(s.UptimeSeconds)},
		{"pythia_build_info", gauge, "Build identity of the running binary (value is always 1).", []sample{
			{labels: fmt.Sprintf("{go_version=%q,path=%q,revision=%q}", s.Build.GoVersion, s.Build.Path, s.Build.Revision), value: "1"}}},
	}
}

// one is the sample list of an unlabelled single-value family.
func one(v any) []sample { return []sample{{value: num(v)}} }

// num renders a sample value: integers in decimal, floats the way Prometheus
// expects (shortest exact decimal, no exponent surprises for the magnitudes
// we emit).
func num(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}
