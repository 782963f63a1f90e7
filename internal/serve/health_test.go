package serve

import (
	"math/rand"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/obs"
)

// healthHarness builds a health tracker on a settable fake clock plus a
// recorder to observe its lifecycle events.
func healthHarness(backoff time.Duration) (*health, *time.Time, *Metrics) {
	m := NewMetrics(nil)
	h := newHealth(backoff, m.Events())
	now := time.Unix(0, 0)
	h.now = func() time.Time { return now }
	return h, &now, m
}

// TestHealthLifecycle walks the full state machine on a fake clock:
// healthy → degraded → quarantined → probe → probation → healthy, with the
// matching events recorded at each transition.
func TestHealthLifecycle(t *testing.T) {
	h, now, m := healthHarness(time.Second)
	if !h.serving() || h.State() != "healthy" {
		t.Fatalf("fresh tracker not healthy: %s", h.State())
	}

	// degradeThreshold window failures mark degraded, and no fewer; still
	// serving.
	for i := 1; i < degradeThreshold; i++ {
		h.failure()
	}
	if h.State() != "healthy" {
		t.Fatalf("%d failures already moved state: %s", degradeThreshold-1, h.State())
	}
	h.failure()
	if h.State() != "degraded" || !h.serving() {
		t.Fatalf("after degradeThreshold failures: state=%s serving=%v", h.State(), h.serving())
	}

	// Successes dilute the window back below degradeThreshold → healthy again.
	for i := 0; i < healthWindow; i++ {
		h.success()
	}
	if h.State() != "healthy" {
		t.Fatalf("successes did not clear degraded: %s", h.State())
	}

	// quarantineThreshold failures quarantine; the model path stops running.
	for i := 0; i < quarantineThreshold; i++ {
		h.failure()
	}
	if h.State() != "quarantined" || h.serving() {
		t.Fatalf("after quarantineThreshold failures: state=%s serving=%v", h.State(), h.serving())
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

	// Probe success → probation (serving again), and it stays there until
	// the quarantineProbes-th consecutive success → healthy with a
	// ReplicaRecovered event.
	for i := 1; i < quarantineProbes; i++ {
		h.success()
		if h.State() != "probation" || !h.serving() {
			t.Fatalf("after %d probe successes: state=%s serving=%v", i, h.State(), h.serving())
		}
	}
	h.success()
	if h.State() != "healthy" {
		t.Fatalf("after %d probe successes: %s", quarantineProbes, h.State())
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
// straight back to quarantined and doubles the backoff — a flapping model
// is probed ever less often.
func TestHealthProbationFailureRequarantines(t *testing.T) {
	h, now, m := healthHarness(time.Second)
	for i := 0; i < quarantineThreshold; i++ {
		h.failure()
	}
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
	h, now, _ := healthHarness(time.Second)
	quarantine := func() {
		for i := 0; i < quarantineThreshold; i++ {
			h.failure()
		}
	}
	quarantine() // backoff 1s
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
	for i := 0; i < quarantineProbes; i++ {
		h.success()
	}
	if h.State() != "healthy" {
		t.Fatalf("state %s, want healthy", h.State())
	}
	quarantine()
	h.mu.Lock()
	cur = h.curBackoff
	h.mu.Unlock()
	if cur != time.Second {
		t.Fatalf("backoff after recovery = %v, want base 1s", cur)
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
// only what its own gate admits, the health machine is quarantined whenever
// the reference breaker with threshold quarantineThreshold is open.
// The clock stands still while a sequence runs, so neither the cooldown nor
// the backoff elapses and the property is exactly "trips no later"; it then
// jumps past both, and a failed trial must leave both machines shut.
func TestHealthTripsNoLaterThanBreaker(t *testing.T) {
	const sequences, events, T = 1000, 200, quarantineThreshold
	for seed := 0; seed < sequences; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		pHit, pFail := rng.Float64(), rng.Float64()
		h, now, _ := healthHarness(time.Second)
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
