// Package fault is the deterministic fault-injection layer for the I/O and
// serving stack. A Plan names per-site fault rates (plus scripted
// virtual-time windows that override them); an Injector seeded from
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
	"math"
	"strconv"
	"strings"

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
	// Replica: one chosen serving replica's inferences (and standby builds
	// during a model swap) fail, leaving its siblings healthy — the site the
	// pool's quarantine → failover → probe → recovery cycle is drilled with.
	Replica
	// SiteCount sizes per-site arrays; it must remain last.
	SiteCount
)

var siteNames = [SiteCount]string{
	ExecRead:     "exec",
	PrefetchRead: "prefetch",
	LatencySpike: "latency",
	Inference:    "infer",
	Serve:        "serve",
	Replica:      "replica",
}

// String returns the site's short name (the key used by ParsePlan).
func (s Site) String() string {
	if s < SiteCount {
		return siteNames[s]
	}
	return "unknown"
}

// Window scripts a fault burst: within [From, To) on the virtual timeline,
// the site fires at Rate instead of its base rate. Later windows shadow
// earlier ones where they overlap, so a plan can carve exceptions out of a
// burst.
type Window struct {
	Site     Site
	From, To sim.Time
	Rate     float64
}

// Plan is the declarative fault configuration: a base rate per site, the
// tail-latency multiplier LatencySpike applies, and scripted windows. The
// zero Plan injects nothing.
type Plan struct {
	// ExecReadRate is the probability a foreground device read fails.
	ExecReadRate float64
	// PrefetchReadRate is the probability a prefetch device read fails.
	PrefetchReadRate float64
	// LatencySpikeRate is the probability a device read is spiked.
	LatencySpikeRate float64
	// InferenceRate is the probability one query's inference times out.
	InferenceRate float64
	// ServeRate is the probability the serving tier's model path errors.
	ServeRate float64
	// ReplicaRate is the probability the targeted replica's model path (or
	// its standby build during a swap) errors. Unlike Serve, which fires on
	// whichever replica draws next, Replica faults are pinned to the replica
	// whose pool index equals ReplicaIndex — the "kill exactly this replica"
	// knob chaos drills need.
	ReplicaRate float64
	// ReplicaIndex is the pool index Replica faults target (default 0).
	ReplicaIndex int
	// LatencyMultiplier scales a spiked read's latency (default 8×).
	LatencyMultiplier float64
	// Windows script rate overrides on the virtual timeline.
	Windows []Window
}

// rate returns the effective rate for site at virtual time at, applying the
// last matching window override.
func (p *Plan) rate(site Site, at sim.Time) float64 {
	r := 0.0
	switch site {
	case ExecRead:
		r = p.ExecReadRate
	case PrefetchRead:
		r = p.PrefetchReadRate
	case LatencySpike:
		r = p.LatencySpikeRate
	case Inference:
		r = p.InferenceRate
	case Serve:
		r = p.ServeRate
	case Replica:
		r = p.ReplicaRate
	}
	for _, w := range p.Windows {
		if w.Site == site && !at.Before(w.From) && at.Before(w.To) {
			r = w.Rate
		}
	}
	return r
}

// IsZero reports whether the plan injects nothing.
func (p Plan) IsZero() bool {
	return p.ExecReadRate == 0 && p.PrefetchReadRate == 0 &&
		p.LatencySpikeRate == 0 && p.InferenceRate == 0 && p.ServeRate == 0 &&
		p.ReplicaRate == 0 && len(p.Windows) == 0
}

// Validate rejects rates outside [0, 1] (NaN included), a negative or
// non-finite latency multiplier, and malformed windows.
func (p Plan) Validate() error {
	check := func(name string, r float64) error {
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("fault: %s rate %g outside [0, 1]", name, r)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		rate float64
	}{
		{"exec", p.ExecReadRate}, {"prefetch", p.PrefetchReadRate},
		{"latency", p.LatencySpikeRate}, {"infer", p.InferenceRate},
		{"serve", p.ServeRate}, {"replica", p.ReplicaRate},
	} {
		if err := check(c.name, c.rate); err != nil {
			return err
		}
	}
	if m := p.LatencyMultiplier; m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
		return fmt.Errorf("fault: latency multiplier %g is negative or not finite", m)
	}
	if p.ReplicaIndex < 0 {
		return fmt.Errorf("fault: negative replica index %d", p.ReplicaIndex)
	}
	for _, w := range p.Windows {
		if w.Site >= SiteCount {
			return fmt.Errorf("fault: window on unknown site %d", w.Site)
		}
		if !w.From.Before(w.To) {
			return fmt.Errorf("fault: empty window [%v, %v)", w.From, w.To)
		}
		if err := check(w.Site.String()+" window", w.Rate); err != nil {
			return err
		}
	}
	return nil
}

// ParsePlan parses the CLI plan syntax: a comma-separated list of
// "site=rate" entries over the site names exec, prefetch, latency, infer,
// serve, and replica, plus an optional "mult=N" latency multiplier and a
// "replica-id=N" index naming which replica the replica site targets.
// Example:
//
//	exec=0.01,prefetch=0.05,latency=0.02,mult=8
//	replica=1,replica-id=1
//
// An empty string parses to the zero (inject-nothing) plan. Scripted windows
// have no CLI syntax; build the Plan in code for those.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: plan entry %q is not key=value", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("fault: plan entry %q: %v", part, err)
		}
		switch key {
		case "exec":
			p.ExecReadRate = f
		case "prefetch":
			p.PrefetchReadRate = f
		case "latency":
			p.LatencySpikeRate = f
		case "infer":
			p.InferenceRate = f
		case "serve":
			p.ServeRate = f
		case "replica":
			p.ReplicaRate = f
		case "replica-id":
			if f != float64(int(f)) || f < 0 {
				return Plan{}, fmt.Errorf("fault: replica-id %q is not a non-negative integer", val)
			}
			p.ReplicaIndex = int(f)
		case "mult":
			p.LatencyMultiplier = f
		default:
			return Plan{}, fmt.Errorf("fault: unknown plan key %q (have exec, prefetch, latency, infer, serve, replica, replica-id, mult)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// String renders the plan in ParsePlan syntax (windows are appended in a
// bracketed suffix for logs; they do not round-trip).
func (p Plan) String() string {
	var parts []string
	add := func(key string, r float64) {
		if r != 0 {
			parts = append(parts, key+"="+strconv.FormatFloat(r, 'g', -1, 64))
		}
	}
	add("exec", p.ExecReadRate)
	add("prefetch", p.PrefetchReadRate)
	add("latency", p.LatencySpikeRate)
	add("infer", p.InferenceRate)
	add("serve", p.ServeRate)
	add("replica", p.ReplicaRate)
	if p.ReplicaRate != 0 {
		add("replica-id", float64(p.ReplicaIndex))
	}
	add("mult", p.LatencyMultiplier)
	out := strings.Join(parts, ",")
	if len(p.Windows) > 0 {
		out += fmt.Sprintf("+%d windows", len(p.Windows))
	}
	if out == "" {
		out = "none"
	}
	return out
}

// Injector turns a Plan into per-call fault decisions. It is stateful (each
// decision advances its site's PRNG stream) and, like the rest of the
// simulation substrate, not synchronized — callers outside the
// single-threaded simulator (the HTTP tier) serialize access themselves.
// Build a fresh Injector (or call Reset) per run to reproduce a timeline.
//
// A nil *Injector is valid everywhere and never fires, so call sites need no
// nil-checks.
type Injector struct {
	plan Plan
	seed uint64
	rngs [SiteCount]*sim.Rand
}

// New returns an injector for plan seeded with seed. It panics on an invalid
// plan (call Plan.Validate first to handle errors gracefully) and fills an
// unset LatencyMultiplier with the default 8×.
func New(plan Plan, seed uint64) *Injector {
	if err := plan.Validate(); err != nil {
		panic(err.Error())
	}
	if plan.LatencyMultiplier == 0 {
		plan.LatencyMultiplier = 8
	}
	i := &Injector{plan: plan, seed: seed}
	i.Reset()
	return i
}

// Reset rewinds every site stream to its initial state, so the next run
// replays the identical fault sequence.
func (i *Injector) Reset() {
	root := sim.NewRand(i.seed)
	for s := range i.rngs {
		i.rngs[s] = root.Split()
	}
}

// Clone returns a fresh injector with the same plan and seed, rewound to the
// start — the way to run a fault-identical replay without perturbing this
// injector's streams.
func (i *Injector) Clone() *Injector {
	if i == nil {
		return nil
	}
	return New(i.plan, i.seed)
}

// Plan returns the injector's plan.
func (i *Injector) Plan() Plan {
	if i == nil {
		return Plan{}
	}
	return i.plan
}

// Seed returns the injector's seed.
func (i *Injector) Seed() uint64 {
	if i == nil {
		return 0
	}
	return i.seed
}

// Fire decides whether site faults at virtual time at. A zero effective rate
// draws nothing from the site's stream, so disabled sites cost nothing and
// never shift the decisions of enabled ones.
func (i *Injector) Fire(site Site, at sim.Time) bool {
	if i == nil || site >= SiteCount {
		return false
	}
	r := i.plan.rate(site, at)
	if r <= 0 {
		return false
	}
	if r >= 1 {
		return true
	}
	return i.rngs[site].Float64() < r
}

// FireReplica decides whether the Replica site faults for the replica with
// the given pool index. Only the plan's targeted ReplicaIndex ever draws, so
// the chosen replica fails deterministically while its siblings' behaviour —
// and every other site's stream — is untouched.
func (i *Injector) FireReplica(id int, at sim.Time) bool {
	if i == nil || id != i.plan.ReplicaIndex {
		return false
	}
	return i.Fire(Replica, at)
}

// ReadLatency applies the tail-latency fault to one device read: base when
// the LatencySpike site does not fire, base × LatencyMultiplier when it does.
func (i *Injector) ReadLatency(at sim.Time, base sim.Duration) sim.Duration {
	if i.Fire(LatencySpike, at) {
		return sim.Duration(float64(base) * i.plan.LatencyMultiplier)
	}
	return base
}
