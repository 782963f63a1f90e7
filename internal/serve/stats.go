package serve

import (
	"net/http"

	"github.com/pythia-db/pythia/internal/obs"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
)

// statsResponse is the one snapshot of the serving books: the JSON shape of
// /stats, and the only input of the /metrics renderer — what /metrics needs
// and /stats does not print rides along as json:"-" fields.
//
// Every total (predictions, requests_shed and inference_timeouts, which are
// request-table rows; predcache hits/misses/evictions, quality,
// drift.evaluations) reads monotonic counters in the Metrics hub, so it
// survives a model swap and is counted nowhere else. The model row, the cache
// residency and the drift state and score are the serving generation's own
// state and restart with it.
type statsResponse struct {
	UptimeSeconds  float64           `json:"uptime_seconds"`
	Build          BuildInfo         `json:"build"`
	Requests       []requestRow      `json:"requests"`
	Latency        []latencyRow      `json:"latency"`
	Predictions    uint64            `json:"predictions"`
	Fallbacks      uint64            `json:"fallbacks"`
	FallbackRate   float64           `json:"fallback_rate"`
	PredictedPages uint64            `json:"predicted_pages"`
	AvgSetSize     float64           `json:"avg_set_size"`
	Events         map[string]uint64 `json:"events"`
	Shed           uint64            `json:"requests_shed"`
	Timeouts       uint64            `json:"inference_timeouts"`
	Draining       bool              `json:"draining"`
	Generation     uint64            `json:"generation"`
	Swaps          uint64            `json:"swaps"`
	Model          GenerationStatus  `json:"model"`
	// PredCache is the prediction cache's view (FleetCache below), printed
	// only when caching is on.
	PredCache *predCacheStats `json:"predcache,omitempty"`
	// Quality is the score over every feedback report. Always present —
	// zeros mean "no feedback yet", and rendering the block unconditionally
	// keeps the /stats shape configuration-independent.
	Quality qualityStats `json:"quality"`
	// Drift is the single-state summary a dashboard alerts on: State
	// (StateValue as a gauge) is the level of the serving generation's last
	// evaluation Score; Evaluations is the lifetime total across generations.
	Drift quality.DriftStats `json:"drift"`
	// Baseline identifies the drift baseline the serving snapshot carries
	// (absent when the system is untrained or predates baselines).
	Baseline *corepythia.BaselineID `json:"baseline,omitempty"`

	// /metrics only: every event kind including the zeros Events omits, the
	// model inventory, the cache totals even when caching is off, and the
	// feedback page sums.
	EventCounts  obs.Counters   `json:"-"`
	Workloads    int            `json:"-"`
	ModelParams  int            `json:"-"`
	FleetCache   predCacheStats `json:"-"`
	QualityPages quality.Score  `json:"-"`
}

// qualityStats is the /stats view of the feedback page sums.
type qualityStats struct {
	// Scored is the lifetime count of feedback reports scored.
	Scored uint64 `json:"scored"`
	// Precision and Recall are micro-averaged over every scored report (0
	// when none is).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// WastedRatio is 1 − precision (0 when no report is scored).
	WastedRatio float64 `json:"wasted_ratio"`
}

// predCacheStats is the prediction cache's view: the serving generation's
// residency, lifetime outcome totals.
type predCacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// snapshot reads the hub and the model tier once; /stats marshals the result and /metrics renders it.
func (s *Server) snapshot() *statsResponse {
	m := s.metrics
	ev := m.events.Snapshot()
	st := s.pool.Status()
	pages := m.qualityPages()
	resp := &statsResponse{
		UptimeSeconds:  m.Uptime().Seconds(),
		Build:          m.Build(),
		Requests:       m.snapshotRequests(),
		Latency:        m.snapshotLatency(),
		Predictions:    m.requestCount("predict", http.StatusOK),
		Fallbacks:      m.fallbacks.Load(),
		PredictedPages: m.predictedPages.Load(),
		Events:         ev.Map(),
		Shed:           m.requestCount("predict", http.StatusServiceUnavailable),
		Timeouts:       m.requestCount("predict", http.StatusGatewayTimeout),
		Draining:       s.draining.Load(),
		Generation:     st.Generation,
		Swaps:          st.Swaps,
		Model:          st.Model,
		Quality:        qualityOf(ev.Get(obs.QualityScored), pages),
		Drift:          st.Drift,
		Baseline:       s.pool.BaselineID(),
		EventCounts:    ev,
		Workloads:      len(st.Model.Workloads),
		ModelParams:    st.Model.Params,
		QualityPages:   pages,
		FleetCache:     predCacheStats{Hits: ev.Get(obs.PredCacheHit), Misses: ev.Get(obs.PredCacheMiss), Evictions: ev.Get(obs.PredCacheEvict)},
	}
	resp.Drift.Evaluations = m.driftEvals.Load()
	if resp.Predictions > 0 {
		resp.FallbackRate = float64(resp.Fallbacks) / float64(resp.Predictions)
		resp.AvgSetSize = float64(resp.PredictedPages) / float64(resp.Predictions)
	}
	if s.opts.CacheEntries > 0 {
		resp.FleetCache.Entries, resp.FleetCache.Capacity = st.CacheEntries, s.opts.CacheEntries
		resp.PredCache = &resp.FleetCache
	}
	return resp
}

// qualityOf is /stats' quality block: precision, recall and wasted ratio
// micro-averaged over every scored report (sums, not a mean of ratios, so
// large predictions weigh more). Nothing scored reads 0 — "no data" must not
// render as perfect quality on a dashboard.
func qualityOf(scored uint64, pages quality.Score) qualityStats {
	q := qualityStats{Scored: scored}
	if scored > 0 {
		q.Precision, q.Recall, q.WastedRatio = pages.Precision(), pages.Recall(), pages.WastedRatio()
	}
	return q
}
