package serve

import (
	"math/rand"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/obs"
)

// healthHarness builds a health tracker on a settable fake clock plus a
// recorder to observe its lifecycle events.
func healthHarness(threshold int, backoff time.Duration, probes int) (*health, *time.Time, *Metrics) {
	m := NewMetrics(nil)
	h := newHealth(threshold, backoff, probes, m.Events())
	now := time.Unix(0, 0)
	h.now = func() time.Time { return now }
	return h, &now, m
}

// TestHealthLifecycle walks the full state machine on a fake clock:
// healthy → degraded → quarantined → probe → probation → healthy, with the
// matching events recorded at each transition.
func TestHealthLifecycle(t *testing.T) {
	h, now, m := healthHarness(4, time.Second, 2)
	if !h.serving() || h.State() != "healthy" {
		t.Fatalf("fresh tracker not healthy: %s", h.State())
	}

	// degradeAt = ⌈4/2⌉ = 2 window failures mark degraded; still serving.
	h.failure()
	if h.State() != "healthy" {
		t.Fatalf("one failure already moved state: %s", h.State())
	}
	h.failure()
	if h.State() != "degraded" || !h.serving() {
		t.Fatalf("after degradeAt failures: state=%s serving=%v", h.State(), h.serving())
	}

	// Successes dilute the window back below degradeAt → healthy again.
	for i := 0; i < healthWindow; i++ {
		h.success()
	}
	if h.State() != "healthy" {
		t.Fatalf("successes did not clear degraded: %s", h.State())
	}

	// threshold failures quarantine; the replica stops serving.
	for i := 0; i < 4; i++ {
		h.failure()
	}
	if h.State() != "quarantined" || h.serving() {
		t.Fatalf("after threshold failures: state=%s serving=%v", h.State(), h.serving())
	}

	// No probe inside the backoff; exactly one probe once it elapses (the
	// admission resets the timer, so a second immediate probe is refused).
	if h.allowProbe() {
		t.Fatal("probe admitted before backoff elapsed")
	}
	*now = now.Add(time.Second)
	if !h.allowProbe() {
		t.Fatal("probe refused after backoff elapsed")
	}
	if h.allowProbe() {
		t.Fatal("second probe admitted in the same backoff window")
	}

	// Probe failure: still quarantined, backoff doubled to 2s.
	h.failure()
	*now = now.Add(time.Second)
	if h.allowProbe() {
		t.Fatal("probe admitted before the doubled backoff elapsed")
	}
	*now = now.Add(time.Second)
	if !h.allowProbe() {
		t.Fatal("probe refused after the doubled backoff elapsed")
	}

	// Probe success → probation (serving again); one more consecutive
	// success → healthy with a ReplicaRecovered event.
	h.success()
	if h.State() != "probation" || !h.serving() {
		t.Fatalf("after probe success: state=%s serving=%v", h.State(), h.serving())
	}
	h.success()
	if h.State() != "healthy" {
		t.Fatalf("after %d probe successes: %s", 2, h.State())
	}
	// Recovery reset the window: one stale failure must not re-degrade.
	h.failure()
	if h.State() != "healthy" {
		t.Fatalf("recovered tracker degraded on a single failure: %s", h.State())
	}

	// Two degradations (one before quarantine in each unhealthy phase), one
	// quarantine, two probes (the refused ones record nothing), one recovery.
	snap := m.Events().Snapshot()
	if snap.Get(obs.ReplicaDegraded) != 2 || snap.Get(obs.ReplicaQuarantined) != 1 ||
		snap.Get(obs.ReplicaProbe) != 2 || snap.Get(obs.ReplicaRecovered) != 1 {
		t.Fatalf("lifecycle events wrong: degraded=%d quarantined=%d probe=%d recovered=%d",
			snap.Get(obs.ReplicaDegraded), snap.Get(obs.ReplicaQuarantined),
			snap.Get(obs.ReplicaProbe), snap.Get(obs.ReplicaRecovered))
	}
}

// TestHealthProbationFailureRequarantines: a failure during probation drops
// straight back to quarantined and doubles the backoff — a flapping replica
// is probed ever less often.
func TestHealthProbationFailureRequarantines(t *testing.T) {
	h, now, m := healthHarness(2, time.Second, 3)
	h.failure()
	h.failure()
	if h.State() != "quarantined" {
		t.Fatalf("state %s, want quarantined", h.State())
	}
	*now = now.Add(time.Second)
	if !h.allowProbe() {
		t.Fatal("probe refused")
	}
	h.success()
	if h.State() != "probation" {
		t.Fatalf("state %s, want probation", h.State())
	}
	h.failure()
	if h.State() != "quarantined" || h.serving() {
		t.Fatalf("probation failure: state=%s serving=%v", h.State(), h.serving())
	}
	// Backoff doubled: 1s is not enough, 2s is.
	*now = now.Add(time.Second)
	if h.allowProbe() {
		t.Fatal("probe admitted before doubled backoff")
	}
	*now = now.Add(time.Second)
	if !h.allowProbe() {
		t.Fatal("probe refused after doubled backoff")
	}
	if snap := m.Events().Snapshot(); snap.Get(obs.ReplicaQuarantined) != 2 {
		t.Fatalf("quarantine events = %d, want 2", snap.Get(obs.ReplicaQuarantined))
	}
}

// TestHealthBackoffCap: repeated probe failures double the backoff only up to
// 16× the base.
func TestHealthBackoffCap(t *testing.T) {
	h, now, _ := healthHarness(1, time.Second, 1)
	h.failure() // quarantine, backoff 1s
	for i := 0; i < 10; i++ {
		*now = now.Add(time.Hour) // always past any backoff
		if !h.allowProbe() {
			t.Fatalf("round %d: probe refused", i)
		}
		h.failure()
	}
	h.mu.Lock()
	cur := h.curBackoff
	h.mu.Unlock()
	if cur != 16*time.Second {
		t.Fatalf("backoff after 10 failed probes = %v, want capped 16s", cur)
	}
	// Recovery resets the backoff to the base for the next quarantine.
	*now = now.Add(time.Hour)
	if !h.allowProbe() {
		t.Fatal("probe refused")
	}
	h.success()
	if h.State() != "healthy" {
		t.Fatalf("state %s, want healthy", h.State())
	}
	h.failure() // threshold 1: immediate re-quarantine
	h.mu.Lock()
	cur = h.curBackoff
	h.mu.Unlock()
	if cur != time.Second {
		t.Fatalf("backoff after recovery = %v, want base 1s", cur)
	}
}

// TestHealthDisabled: a zero threshold turns the tracker off — always
// serving, never probing, no state changes, and a nil tracker is safe.
func TestHealthDisabled(t *testing.T) {
	h := newHealth(0, time.Second, 3, nil)
	for i := 0; i < 100; i++ {
		h.failure()
	}
	if !h.serving() || h.State() != "healthy" || h.allowProbe() {
		t.Fatalf("disabled tracker changed state: %s", h.State())
	}
	var nilH *health
	nilH.failure()
	nilH.success()
	if !nilH.serving() || nilH.allowProbe() || nilH.stateValue() != healthHealthy {
		t.Fatal("nil tracker not inert")
	}
}

// refBreaker is the consecutive-error circuit breaker the health machine
// replaced, kept as the reference model for the differential test below:
// threshold consecutive model-path failures open it, a success resets the
// count, and after cooldown one trial is admitted whose failure re-opens it.
// Cache hits never reached it.
type refBreaker struct {
	threshold, consecutive int
	cooldown               time.Duration
	open, halfOpen         bool
	openedAt               time.Time
}

// allow reports whether the model path may be tried at now.
func (b *refBreaker) allow(now time.Time) bool {
	if b.open && now.Sub(b.openedAt) >= b.cooldown {
		b.open, b.halfOpen = false, true
	}
	return !b.open
}

func (b *refBreaker) success() { b.consecutive, b.halfOpen = 0, false }

func (b *refBreaker) failure(now time.Time) {
	b.consecutive++
	if b.halfOpen || b.consecutive >= b.threshold {
		b.open, b.halfOpen, b.openedAt = true, false, now
	}
}

// TestHealthTripsNoLaterThanBreaker is the differential property behind
// folding the breaker into the health machine: over seeded random sequences
// of model-path outcomes with cache hits interleaved, each machine seeing
// only what its own gate admits, the health machine with QuarantineThreshold
// = T is quarantined whenever the reference breaker with threshold T is open.
// The clock stands still while a sequence runs, so neither the cooldown nor
// the backoff elapses and the property is exactly "trips no later"; it then
// jumps past both, and a failed trial must leave both machines shut.
func TestHealthTripsNoLaterThanBreaker(t *testing.T) {
	const sequences, events = 1000, 200
	for _, T := range []int{1, 3, 5} {
		for seed := 0; seed < sequences; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			pHit, pFail := rng.Float64(), rng.Float64()
			h, now, _ := healthHarness(T, time.Second, 3)
			ref := &refBreaker{threshold: T, cooldown: time.Second}
			check := func(step int) {
				t.Helper()
				if !ref.allow(*now) && h.State() != "quarantined" {
					t.Fatalf("T=%d seed=%d step %d: reference breaker is open but health is %s", T, seed, step, h.State())
				}
			}
			for step := 0; step < events; step++ {
				hit, failed := rng.Float64() < pHit, rng.Float64() < pFail
				// The reference never saw cache hits; health sees whatever the
				// pool's admission pass would let through.
				if !hit && ref.allow(*now) {
					if failed {
						ref.failure(*now)
					} else {
						ref.success()
					}
				}
				if h.serving() || h.allowProbe() {
					switch {
					case hit:
						h.cacheHit()
					case failed:
						h.failure()
					default:
						h.success()
					}
				}
				check(step)
			}
			if ref.open {
				*now = now.Add(time.Hour)
				if !ref.allow(*now) || !h.allowProbe() {
					t.Fatalf("T=%d seed=%d: no trial admitted an hour after tripping", T, seed)
				}
				ref.failure(*now)
				h.failure()
				check(events)
			}
		}
	}
}
