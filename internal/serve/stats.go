package serve

import (
	"github.com/pythia-db/pythia/internal/obs"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
)

// statsResponse is the one snapshot of the serving books: the JSON shape of
// /stats, and the only input of the /metrics renderer — what /metrics needs
// and /stats does not print rides along as json:"-" fields.
//
// Totals (requests_shed, predcache hits/misses/evictions, quality.scored,
// drift.evaluations) each read one monotonic counter in the Metrics hub, so
// they survive a model swap; the model row and the drift state and score are
// the serving generation's own and restart with it.
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
	BufferHitRatio float64           `json:"buffer_hit_ratio"`
	OSHitRatio     float64           `json:"oscache_hit_ratio"`
	Shed           uint64            `json:"requests_shed"`
	Timeouts       uint64            `json:"inference_timeouts"`
	Draining       bool              `json:"draining"`
	Generation     uint64            `json:"generation"`
	Swaps          uint64            `json:"swaps"`
	Model          GenerationStatus  `json:"model"`
	// PredCache is the prediction cache's view (FleetCache below), printed
	// only when caching is on.
	PredCache *predCacheStats `json:"predcache,omitempty"`
	// Quality is the server's one feedback window. Always present — zeros
	// mean "no feedback yet", and rendering the block unconditionally keeps
	// the /stats shape configuration-independent.
	Quality qualityStats `json:"quality"`
	// Drift is the single-state summary a dashboard alerts on: State
	// (StateValue as a gauge) is the level of the serving generation's last
	// evaluation Score; Evaluations is the lifetime total across generations.
	Drift quality.DriftStats `json:"drift"`
	// Baseline identifies the drift baseline the serving snapshot carries
	// (absent when the system is untrained or predates baselines).
	Baseline *corepythia.BaselineID `json:"baseline,omitempty"`

	// /metrics only: every event kind including the zeros Events omits, the
	// model inventory and the cache totals even when caching is off.
	EventCounts obs.Counters   `json:"-"`
	Workloads   int            `json:"-"`
	ModelParams int            `json:"-"`
	FleetCache  predCacheStats `json:"-"`
}

// qualityStats is the /stats view of the server-wide feedback window.
type qualityStats struct {
	// Scored is the lifetime count of feedback reports scored.
	Scored uint64 `json:"scored"`
	// Window is how many scores the sliding window currently holds.
	Window int `json:"window"`
	// Precision and Recall are micro-averaged over the window (0 when empty).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// WastedRatio is 1 − precision over the window.
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
	resp := &statsResponse{
		UptimeSeconds:  m.Uptime().Seconds(),
		Build:          m.Build(),
		Requests:       m.snapshotRequests(),
		Latency:        m.snapshotLatency(),
		Predictions:    m.predictions.Load(),
		Fallbacks:      m.fallbacks.Load(),
		PredictedPages: m.predictedPages.Load(),
		Events:         ev.Map(),
		BufferHitRatio: ev.HitRatio(obs.BufferHit, obs.BufferMiss),
		OSHitRatio:     ev.HitRatio(obs.OSCacheHit, obs.OSCacheMiss),
		Shed:           m.sheds.Load(),
		Timeouts:       m.timeouts.Load(),
		Draining:       s.draining.Load(),
		Generation:     st.Generation,
		Swaps:          st.Swaps,
		Model:          st.Model,
		Quality:        s.qualitySnapshot(ev.Get(obs.QualityScored)),
		Drift:          st.Drift,
		Baseline:       s.pool.BaselineID(),
		EventCounts:    ev,
		FleetCache:     predCacheStats{Hits: ev.Get(obs.PredCacheHit), Misses: ev.Get(obs.PredCacheMiss), Evictions: ev.Get(obs.PredCacheEvict)},
	}
	resp.Drift.Evaluations = m.driftEvals.Load()
	if resp.Predictions > 0 {
		resp.FallbackRate = float64(resp.Fallbacks) / float64(resp.Predictions)
		resp.AvgSetSize = float64(resp.PredictedPages) / float64(resp.Predictions)
	}
	resp.FleetCache.Entries, resp.FleetCache.Capacity = st.Model.CacheEntries, st.Model.CacheCapacity
	if s.opts.CacheEntries > 0 {
		resp.PredCache = &resp.FleetCache
	}
	for _, tw := range s.pool.Workloads() {
		resp.Workloads++
		resp.ModelParams += tw.Pred.ParamCount()
	}
	return resp
}

// qualitySnapshot reads the feedback window; scored is the
// lifetime feedback count from the hub.
func (s *Server) qualitySnapshot(scored uint64) qualityStats {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	q := qualityStats{
		Scored:    scored,
		Window:    s.qwin.Len(),
		Precision: s.qwin.Precision(),
		Recall:    s.qwin.Recall(),
	}
	if q.Window > 0 {
		q.WastedRatio = 1 - q.Precision
	}
	return q
}
