package serve

import (
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/quality"
)

// BuildInfo identifies the running binary on /metrics (the
// pythia_build_info gauge) and /stats (the build block): the Go toolchain,
// the main module path, and the VCS revision when the binary was built from
// a checkout. Unknown fields read "unknown" so the labels are always
// present.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path"`
	Revision  string `json:"revision"`
}

// readBuildInfo extracts BuildInfo from the binary's embedded build
// metadata.
func readBuildInfo() BuildInfo {
	b := BuildInfo{GoVersion: "unknown", Path: "unknown", Revision: "unknown"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if info.GoVersion != "" {
		b.GoVersion = info.GoVersion
	}
	if info.Main.Path != "" {
		b.Path = info.Main.Path
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			b.Revision = s.Value
		}
	}
	return b
}

// Metrics aggregates everything the serving surface exposes on /metrics and
// /stats: HTTP request counts and latencies per endpoint, prediction
// outcomes (fallback rate, predicted-set sizes), and the system's
// observability counters (workload matching, and per-level cache events
// from any replay the system runs).
type Metrics struct {
	start time.Time

	// now is the clock behind uptime and request latencies. Production code
	// leaves it at time.Now; tests swap in a fake via setClock so /metrics
	// and /stats bodies are byte-for-byte reproducible.
	now func() time.Time

	mu sync.Mutex
	// requests counts answers by endpoint → status code. Its {predict, 200},
	// {predict, 503} and {predict, 504} cells are the served predictions,
	// requests shed and inference timeouts: only a served prediction answers
	// 200, only a full work queue 503 and only an inference past its
	// deadline 504.
	requests map[string]map[int]uint64
	latency  map[string]*obs.Histogram // endpoint → request latency

	fallbacks      atomic.Uint64 // predictions answered by the fallback path
	predictedPages atomic.Uint64 // total pages across predicted sets

	// Totals with no obs.Kind of their own. They live here, not on the
	// generation, so they survive a model swap; every other such fact
	// (prediction-cache outcomes, model errors, scored feedback reports) is
	// its events counter and nothing else.
	driftEvals atomic.Uint64 // drift-monitor evaluations across generations

	// Page sums over every scored feedback report: predicted, actually
	// touched, and both. Precision and recall are their ratios — on /stats
	// over the server's lifetime, and over any window on the scraper's side
	// of /metrics.
	qualityPredicted, qualityActual, qualityTruePos atomic.Uint64

	events *obs.AtomicCounters // system + replay event totals

	build BuildInfo
}

// NewMetrics returns an empty metrics hub recording system events into
// counters (a fresh AtomicCounters when nil). Wire the same counters into
// pythia's Config.Recorder so workload-matching and replay events surface
// here.
func NewMetrics(counters *obs.AtomicCounters) *Metrics {
	if counters == nil {
		counters = &obs.AtomicCounters{}
	}
	return &Metrics{
		start:    time.Now(),
		now:      time.Now,
		requests: make(map[string]map[int]uint64),
		latency:  make(map[string]*obs.Histogram),
		events:   counters,
		build:    readBuildInfo(),
	}
}

// setClock replaces the wall clock and restarts the uptime epoch from it.
// Test-only: with a stepped fake clock every duration the hub reports is
// deterministic, which is what makes full-body golden tests of /metrics and
// /stats possible.
func (m *Metrics) setClock(now func() time.Time) {
	m.now = now
	m.start = now()
}

// setBuildInfo replaces the binary's build identity. Test-only, same role as
// setClock: ReadBuildInfo output varies by toolchain, so golden-body tests
// pin fixed values.
func (m *Metrics) setBuildInfo(b BuildInfo) { m.build = b }

// Build returns the binary's build identity as exposed on /metrics and
// /stats.
func (m *Metrics) Build() BuildInfo { return m.build }

// Events returns the system event counters (also an obs.Recorder).
func (m *Metrics) Events() *obs.AtomicCounters { return m.events }

// Uptime reports time since the metrics hub was created.
func (m *Metrics) Uptime() time.Duration { return m.now().Sub(m.start) }

// observeRequest records one completed HTTP request.
func (m *Metrics) observeRequest(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	byCode := m.requests[endpoint]
	if byCode == nil {
		byCode = make(map[int]uint64)
		m.requests[endpoint] = byCode
	}
	byCode[code]++
	h := m.latency[endpoint]
	if h == nil {
		h = obs.NewHistogram()
		m.latency[endpoint] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// observePrediction records one served prediction.
func (m *Metrics) observePrediction(pages int, fallback bool) {
	if fallback {
		m.fallbacks.Add(1)
	}
	m.predictedPages.Add(uint64(pages))
}

// observeScore adds one scored feedback report to the page sums. True
// positives are added last and read first (qualityPages), so a concurrent
// reader never sees more of them than predicted or actual pages.
func (m *Metrics) observeScore(sc quality.Score) {
	m.qualityPredicted.Add(uint64(sc.Predicted))
	m.qualityActual.Add(uint64(sc.Actual))
	m.qualityTruePos.Add(uint64(sc.TruePos))
}

// qualityPages reads the page sums as one Score.
func (m *Metrics) qualityPages() quality.Score {
	tp := m.qualityTruePos.Load()
	return quality.Score{Predicted: int(m.qualityPredicted.Load()), Actual: int(m.qualityActual.Load()), TruePos: int(tp)}
}

// Record implements obs.Recorder: every event of the serving tier —
// prediction-cache outcomes, model errors, scored feedback — is counted once
// here. Serve events carry no time: nothing reads one.
//
//pythia:noalloc
func (m *Metrics) Record(e obs.Event) { m.events.Record(e) }

// requestRow is one (endpoint, code, count) cell in snapshot order.
type requestRow struct {
	Endpoint string `json:"endpoint"`
	Code     int    `json:"code"`
	Count    uint64 `json:"count"`
}

// latencyRow is one endpoint's latency summary. The histogram itself rides
// along for /metrics: Cumulative holds one count per bound plus a final +Inf
// entry.
type latencyRow struct {
	Endpoint   string          `json:"endpoint"`
	Count      uint64          `json:"count"`
	SumSeconds float64         `json:"sum_seconds"`
	AvgSeconds float64         `json:"avg_seconds"`
	Bounds     []time.Duration `json:"-"`
	Cumulative []uint64        `json:"-"`
}

// snapshotRequests returns the request table sorted by (endpoint, code) so
// /metrics and /stats render deterministically.
func (m *Metrics) snapshotRequests() []requestRow {
	m.mu.Lock()
	defer m.mu.Unlock()
	var rows []requestRow
	for ep, byCode := range m.requests {
		for code, n := range byCode {
			rows = append(rows, requestRow{Endpoint: ep, Code: code, Count: n})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Endpoint != rows[j].Endpoint {
			return rows[i].Endpoint < rows[j].Endpoint
		}
		return rows[i].Code < rows[j].Code
	})
	return rows
}

// requestCount reads one cell of the request table.
func (m *Metrics) requestCount(endpoint string, code int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests[endpoint][code]
}

// snapshotLatency returns per-endpoint latency summaries, sorted.
func (m *Metrics) snapshotLatency() []latencyRow {
	m.mu.Lock()
	defer m.mu.Unlock()
	var rows []latencyRow
	for ep, h := range m.latency {
		row := latencyRow{Endpoint: ep, Count: h.Count(), SumSeconds: h.Sum().Seconds(),
			Bounds: h.Bounds(), Cumulative: h.Cumulative()}
		if row.Count > 0 {
			row.AvgSeconds = row.SumSeconds / float64(row.Count)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Endpoint < rows[j].Endpoint })
	return rows
}

// statusWriter captures the response status code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request counting and latency observation
// under the given endpoint label.
func (m *Metrics) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := m.now()
		h(sw, r)
		m.observeRequest(endpoint, sw.code, m.now().Sub(start))
	}
}
