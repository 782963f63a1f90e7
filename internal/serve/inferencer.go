package serve

import (
	"errors"
	"sync"

	"github.com/pythia-db/pythia/internal/fault"
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
	// CacheEntries is the serving generation's resident prediction-cache
	// entries (0 when caching is off); /stats prints it in its predcache
	// block.
	CacheEntries int
	// Model is the serving generation's row.
	Model GenerationStatus
}

// GenerationStatus is the serving generation's row in InfStatus: the state
// that has no other home. It holds no counter; every total is a monotonic
// counter in the Metrics hub, which a model swap does not touch.
type GenerationStatus struct {
	InFlight   int64    `json:"in_flight"`
	QueueDepth int      `json:"queue_depth"`
	Workloads  []string `json:"workloads"`
	Params     int      `json:"params"`
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

// workloadNames lists a system's trained workload names for status rows.
func workloadNames(sys *corepythia.System) []string {
	var names []string
	for _, tw := range sys.Workloads() {
		names = append(names, tw.Name)
	}
	return names
}
