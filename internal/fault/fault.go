// Package fault is the deterministic fault-injection layer for the I/O and
// serving stack. A Plan names per-site fault rates; an Injector seeded from
// internal/sim's PRNG turns the plan into concrete per-call decisions. Every
// decision is a pure function of (seed, site, call ordinal), so a replay
// under any plan is bitwise reproducible: the same plan and seed fire the
// same faults at the same sites in the same order, run after run.
//
// The injected faults are the failure modes a deployed learned prefetcher
// must degrade through (the paper's safety argument, §3.3, is that
// prefetching is advisory — a missing or late page costs speed, never
// correctness):
//
//   - ExecRead: the executor's synchronous device read fails transiently.
//   - PrefetchRead: an asynchronous prefetch device read fails transiently.
//   - LatencySpike: a device read completes but at a tail-latency multiple.
//   - Inference: model inference blows its virtual-time deadline.
//   - Serve: the serving tier's model path throws a transient error.
//
// Each site draws from its own Split-derived stream, so raising one site's
// rate never perturbs another site's decisions, and a plan with a zero rate
// at a site draws nothing there at all — an all-zero plan is timeline-
// identical to no injector.
package fault

import (
	"fmt"

	"github.com/pythia-db/pythia/internal/sim"
)

// Site enumerates the places a fault can fire.
type Site uint8

const (
	// ExecRead: a foreground (executor-blocking) device read fails.
	ExecRead Site = iota
	// PrefetchRead: an asynchronous prefetch device read fails.
	PrefetchRead
	// LatencySpike: a device read is served at a tail-latency multiple.
	LatencySpike
	// Inference: model inference exceeds its virtual-time budget.
	Inference
	// Serve: the HTTP serving tier's model path errors transiently.
	Serve
	// SiteCount sizes per-site arrays; it must remain last.
	SiteCount
)

var siteNames = [SiteCount]string{
	ExecRead:     "exec",
	PrefetchRead: "prefetch",
	LatencySpike: "latency",
	Inference:    "infer",
	Serve:        "serve",
}

// String returns the site's short name.
func (s Site) String() string {
	if s < SiteCount {
		return siteNames[s]
	}
	return "unknown"
}

// spikeMultiplier scales a spiked read's latency.
const spikeMultiplier = 8

// Plan is the declarative fault configuration: a rate per site. The zero
// Plan injects nothing.
type Plan struct {
	// ExecReadRate is the probability a foreground device read fails.
	ExecReadRate float64
	// PrefetchReadRate is the probability a prefetch device read fails.
	PrefetchReadRate float64
	// LatencySpikeRate is the probability a device read is spiked 8×.
	LatencySpikeRate float64
	// InferenceRate is the probability one query's inference times out.
	InferenceRate float64
	// ServeRate is the probability the serving tier's model path errors.
	ServeRate float64
}

// rate returns the plan's rate for site.
func (p *Plan) rate(site Site) float64 {
	switch site {
	case ExecRead:
		return p.ExecReadRate
	case PrefetchRead:
		return p.PrefetchReadRate
	case LatencySpike:
		return p.LatencySpikeRate
	case Inference:
		return p.InferenceRate
	case Serve:
		return p.ServeRate
	}
	return 0
}

// Validate rejects rates outside [0, 1], NaN included.
func (p Plan) Validate() error {
	for s := Site(0); s < SiteCount; s++ {
		if r := p.rate(s); !(r >= 0 && r <= 1) {
			return fmt.Errorf("fault: %s rate %g outside [0, 1]", s, r)
		}
	}
	return nil
}

// Injector turns a Plan into per-call fault decisions. It is stateful (each
// decision advances its site's PRNG stream) and, like the rest of the
// simulation substrate, not synchronized — callers outside the
// single-threaded simulator (the HTTP tier) serialize access themselves.
// Build a fresh Injector per run to reproduce a timeline.
//
// A nil *Injector is valid everywhere and never fires, so call sites need no
// nil-checks.
type Injector struct {
	plan Plan
	rngs [SiteCount]*sim.Rand
}

// New returns an injector for plan seeded with seed. It panics on an invalid
// plan (call Plan.Validate first to handle errors gracefully).
func New(plan Plan, seed uint64) *Injector {
	if err := plan.Validate(); err != nil {
		panic(err.Error())
	}
	i := &Injector{plan: plan}
	root := sim.NewRand(seed)
	for s := range i.rngs {
		i.rngs[s] = root.Split()
	}
	return i
}

// Fire decides whether site faults on this call. A zero rate draws nothing
// from the site's stream, so disabled sites cost nothing and never shift the
// decisions of enabled ones.
func (i *Injector) Fire(site Site) bool {
	if i == nil {
		return false
	}
	r := i.plan.rate(site)
	if r <= 0 {
		return false
	}
	if r >= 1 {
		return true
	}
	return i.rngs[site].Float64() < r
}

// ReadLatency applies the tail-latency fault to one device read: base when
// the LatencySpike site does not fire, base × 8 when it does.
func (i *Injector) ReadLatency(base sim.Duration) sim.Duration {
	if i.Fire(LatencySpike) {
		return base * spikeMultiplier
	}
	return base
}
