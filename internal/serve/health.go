package serve

import (
	"sync"
	"time"

	"github.com/pythia-db/pythia/internal/obs"
)

// Health states, in gauge order (the value exported as
// pythia_replica_health). Higher is sicker.
const (
	healthHealthy     = 0
	healthDegraded    = 1
	healthProbation   = 2
	healthQuarantined = 3
)

var healthStateNames = [...]string{"healthy", "degraded", "probation", "quarantined"}

// The failure ladder's shape. Only the initial probe backoff is an option
// (Options.QuarantineBackoff: chaos drills need recovery inside their run).
const (
	// healthWindow is the sliding outcome window the health tracker keeps: the last healthWindow model-path outcomes (successes,
	// failures, and admission sheds) decide degradation and quarantine. Small
	// and fixed so the tracker is a ring of booleans, not a timestamped log.
	healthWindow = 16
	// quarantineThreshold window failures quarantine the model; half that,
	// rounded up, marks it degraded.
	quarantineThreshold = 5
	degradeThreshold    = (quarantineThreshold + 1) / 2
	// quarantineProbes consecutive probe successes re-admit a quarantined
	// model to normal service.
	quarantineProbes = 3
)

// health is a generation's self-healing state machine and the serving tier's
// only failure ladder: it alone decides whether the pool tries the model
// path (quarantined is the open state, probation the half-open one).
//
//	healthy ──(window failures ≥ degradeThreshold)────▶ degraded
//	degraded ──(window failures ≥ quarantineThreshold)▶ quarantined
//	quarantined ──(backoff elapses)───────────────────▶ one probe admitted
//	probe success ────────────────────────────────────▶ probation
//	probation ──(quarantineProbes successes in a row)─▶ healthy  [ReplicaRecovered]
//	probe/probation failure ──────────────────────────▶ quarantined, backoff ×2
//
// A degraded model keeps serving (the state is a leading indicator on
// /stats); a quarantined one runs no model path — its requests answer from
// the prediction cache or the degraded fallback — except for the single
// backoff-gated probe that tests recovery. Outcomes recorded while quarantined can only be probe
// outcomes, because probes are the only traffic admitted.
//
// The window holds model-path outcomes only (inference success, injected
// fault, deadline miss, admission shed). A prediction-cache hit says nothing
// about the model, so it never enters the window: quarantineThreshold
// consecutive model-path failures quarantine the model however many hits
// are interleaved, and a high hit rate cannot hold a dead model path in
// service.
//
// health never calls time.Now directly: the injected now field lets tests
// drive backoff expiry by advancing a variable.
type health struct {
	backoff time.Duration // initial probe backoff
	rec     obs.Recorder
	now     func() time.Time // injected clock; time.Now outside tests

	mu            sync.Mutex
	state         int
	window        [healthWindow]bool // true = failure
	windowLen     int
	windowNext    int
	failures      int // failures currently in the window
	quarantinedAt time.Time
	curBackoff    time.Duration
	probeWins     int // consecutive probation successes
}

func newHealth(backoff time.Duration, rec obs.Recorder) *health {
	return &health{backoff: backoff, rec: rec, now: time.Now}
}

//pythia:noalloc
func (h *health) record(k obs.Kind) {
	h.rec.Record(obs.Event{Kind: k, Query: obs.NoQuery})
}

// slide pushes one outcome into the window and returns the failure count.
//
//pythia:noalloc
func (h *health) slide(failed bool) int {
	if h.windowLen == healthWindow {
		if h.window[h.windowNext] {
			h.failures--
		}
	} else {
		h.windowLen++
	}
	h.window[h.windowNext] = failed
	if failed {
		h.failures++
	}
	h.windowNext = (h.windowNext + 1) % healthWindow
	return h.failures
}

// resetWindow clears the outcome window (used on recovery so one stale
// failure cannot instantly re-degrade a just-readmitted model).
func (h *health) resetWindow() {
	h.window = [healthWindow]bool{}
	h.windowLen, h.windowNext, h.failures = 0, 0, 0
}

// success records one healthy model-path outcome (a completed inference).
//
//pythia:noalloc
func (h *health) success() { h.succeed(true) }

// cacheHit records a request answered from the prediction cache. It counts
// only as a probe outcome (quarantined or probation): a probe that happens to
// hit the cache must not wedge quarantine, but in normal service a hit is no
// evidence about the model path and leaves the window alone.
//
//pythia:noalloc
func (h *health) cacheHit() { h.succeed(false) }

//pythia:noalloc
func (h *health) succeed(modelPath bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case healthQuarantined:
		// The only admitted traffic was a probe; one success starts probation.
		h.state = healthProbation
		h.probeWins = 1
		h.maybeRecover()
	case healthProbation:
		h.probeWins++
		h.maybeRecover()
	default:
		if modelPath && h.slide(false) < degradeThreshold && h.state == healthDegraded {
			h.state = healthHealthy
		}
	}
}

// maybeRecover promotes a probation model back to healthy once it has the
// required consecutive successes. Caller holds h.mu.
func (h *health) maybeRecover() {
	if h.probeWins < quarantineProbes {
		return
	}
	h.state = healthHealthy
	h.curBackoff = 0
	h.probeWins = 0
	h.resetWindow()
	h.record(obs.ReplicaRecovered)
}

// failure records one failed model-path outcome (an inference fault, a
// deadline miss, or an admission shed — a model that cannot accept its
// traffic is unhealthy, whatever the cause).
//
//pythia:noalloc
func (h *health) failure() {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case healthQuarantined:
		// A probe failed: stay quarantined and back off harder.
		h.requarantine()
	case healthProbation:
		h.state = healthQuarantined
		h.requarantine()
		h.record(obs.ReplicaQuarantined)
	default:
		fails := h.slide(true)
		if fails >= quarantineThreshold {
			h.state = healthQuarantined
			h.curBackoff = 0
			h.requarantine()
			h.record(obs.ReplicaQuarantined)
		} else if fails >= degradeThreshold && h.state == healthHealthy {
			h.state = healthDegraded
			h.record(obs.ReplicaDegraded)
		}
	}
}

// requarantine restarts the probe backoff clock, doubling the delay (capped
// at 16× the initial one) so a persistently sick model is probed ever less
// often. Caller holds h.mu.
func (h *health) requarantine() {
	h.quarantinedAt = h.now()
	h.probeWins = 0
	if h.curBackoff == 0 {
		h.curBackoff = h.backoff
	} else if h.curBackoff < 16*h.backoff {
		h.curBackoff *= 2
	}
	h.resetWindow()
}

// serving reports whether the model path may run for normal traffic
// (everything but quarantined).
//
//pythia:noalloc
func (h *health) serving() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state != healthQuarantined
}

// allowProbe admits one probe request to a quarantined model whose backoff
// has elapsed. Admission restarts the backoff clock, so at most one probe is
// in flight per backoff window regardless of traffic — the single-flight
// guard cannot wedge, because it is a timer, not a flag an outcome must
// clear.
//
//pythia:noalloc
func (h *health) allowProbe() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != healthQuarantined {
		return false
	}
	if h.now().Sub(h.quarantinedAt) < h.curBackoff {
		return false
	}
	h.quarantinedAt = h.now()
	h.record(obs.ReplicaProbe)
	return true
}

// stateValue returns the state as the gauge value (healthy=0, degraded=1,
// probation=2, quarantined=3).
func (h *health) stateValue() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// State returns the state's name for /stats.
func (h *health) State() string { return healthStateNames[h.stateValue()] }
