package serve

import (
	"errors"
	"sync"

	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/storage"
)

// Prediction is the outcome of one prediction request on the model tier.
type Prediction struct {
	// Workload is the matched trained workload ("" on fallback).
	Workload string
	// Pages is the predicted, buffer-bounded prefetch set.
	Pages []storage.PageID
	// Fallback reports that no workload matched (or the model path faulted)
	// and the empty advisory answer was served.
	Fallback bool
	// Cached reports the answer came from the prediction cache with zero
	// inference.
	Cached bool
	// Degraded names why a matched plan got the fallback: its model path
	// faulted ("model_error").
	Degraded string
	// Generation is the model generation that answered; it increments on
	// every successful Swap.
	Generation uint64
}

// ErrSaturated reports that the bounded work queue was full — the serving
// tier's one "not now". The Server sheds the request with 503 + Retry-After.
var ErrSaturated = errors.New("serve: work queue is full")

// errNoSnapshot reports a reload request with no snapshot path configured.
var errNoSnapshot = errors.New("serve: no snapshot path configured")

// InfStatus is the model tier's snapshot behind /stats.
type InfStatus struct {
	// Generation is the current serving generation (1 at construction).
	Generation uint64
	// Swaps counts completed model swaps.
	Swaps uint64
	// Drift is the serving generation's drift-monitor snapshot (state "ok"
	// and zeros when its snapshot carries no training baseline).
	Drift quality.DriftStats
	// Model is the serving generation's row.
	Model GenerationStatus
}

// GenerationStatus is the serving generation's row in InfStatus. Its
// counters (served, shed, cache hits/misses/evictions) are per-generation: a
// model swap replaces the row, and the new one starts from zero. The totals
// on /stats and /metrics are separate monotonic counters in the Metrics hub
// and do not restart.
type GenerationStatus struct {
	Served         uint64   `json:"served"`
	Shed           uint64   `json:"shed"`
	InFlight       int64    `json:"in_flight"`
	QueueDepth     int      `json:"queue_depth"`
	CacheEntries   int      `json:"cache_entries"`
	CacheCapacity  int      `json:"cache_capacity"`
	CacheHits      uint64   `json:"cache_hits"`
	CacheMisses    uint64   `json:"cache_misses"`
	CacheEvictions uint64   `json:"cache_evictions"`
	Workloads      []string `json:"workloads"`
	Params         int      `json:"params"`
}

// faultGate serializes draws on the chaos injector (fault.Injector is not
// synchronized and requests fire it concurrently) and lets tests clear the
// injector on a live server.
type faultGate struct {
	mu  sync.Mutex
	inj *fault.Injector
}

// fire draws the model-path fault decision for one request at the Serve
// site.
func (g *faultGate) fire() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inj.Fire(fault.Serve)
}

func (g *faultGate) set(inj *fault.Injector) {
	g.mu.Lock()
	g.inj = inj
	g.mu.Unlock()
}

// warmSetSize bounds the recently-served plan set replayed through a standby
// generation before it starts taking traffic.
const warmSetSize = 8

// warmEntry is one recently served plan: its fingerprint plus enough of the
// request to re-run it through a fresh generation.
type warmEntry struct {
	fp   uint64
	q    plan.Query
	root *plan.Node
}

// warmer remembers the last warmSetSize distinct plans that reached the
// model tier. A model swap replays them through the standby generation so it
// comes up with hot prediction caches instead of serving its first requests
// cold. It outlives generations: the Pool owns and feeds it.
type warmer struct {
	mu      sync.Mutex
	entries []warmEntry
	next    int
	seen    map[uint64]bool
}

func newWarmer() *warmer { return &warmer{seen: make(map[uint64]bool, warmSetSize)} }

// note records one served plan, ring-evicting the oldest past warmSetSize.
func (w *warmer) note(fp uint64, q plan.Query, root *plan.Node) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seen[fp] {
		return
	}
	if len(w.entries) < warmSetSize {
		w.entries = append(w.entries, warmEntry{fp: fp, q: q, root: root})
		w.seen[fp] = true
		return
	}
	delete(w.seen, w.entries[w.next].fp)
	w.entries[w.next] = warmEntry{fp: fp, q: q, root: root}
	w.seen[fp] = true
	w.next = (w.next + 1) % warmSetSize
}

// snapshot copies the current warm set.
func (w *warmer) snapshot() []warmEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]warmEntry(nil), w.entries...)
}

// workloadNames lists a system's trained workload names for status rows.
func workloadNames(sys *corepythia.System) []string {
	var names []string
	for _, tw := range sys.Workloads() {
		names = append(names, tw.Name)
	}
	return names
}
