package quality

import (
	"fmt"
	"math"

	"github.com/pythia-db/pythia/internal/sim"
)

// SketchBuckets is the fixed histogram width. 64 buckets keeps a Profile at
// ~1 KiB, small enough to ride the snapshot envelope and cheap to diff, while
// the DSB plan-token vocabulary (tens of distinct tokens per template family)
// still spreads enough for template-mix shifts to move mass between buckets.
const SketchBuckets = 64

// Sketch is a fixed-size hashed histogram: observations hash into one of
// SketchBuckets counters. It never allocates after construction, so the
// streaming update sits on the serving hot path and inside replay runs
// without perturbing either. Fields are exported for gob (the baseline
// persists inside the PYSNAP snapshot envelope).
type Sketch struct {
	Counts [SketchBuckets]uint64
	Total  uint64
}

// Observe hashes one item into its bucket.
//
//pythia:noalloc
func (s *Sketch) Observe(h uint64) {
	s.Counts[sim.Mix64(h)&(SketchBuckets-1)]++
	s.Total++
}

// decay halves every bucket, turning the accumulating histogram into an
// exponentially forgetting window (half-life = one evaluation period).
//
//pythia:noalloc
func (s *Sketch) decay() {
	var total uint64
	for i := range s.Counts {
		s.Counts[i] >>= 1
		total += s.Counts[i]
	}
	s.Total = total
}

// merge adds another sketch's mass into this one.
func (s *Sketch) merge(o *Sketch) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Total += o.Total
}

// psiLambda is the mixture-smoothing weight: each sketch's empirical
// distribution is blended with the uniform distribution as
// (1−λ)·cᵢ/T + λ/B before the PSI sum, so empty buckets contribute finite
// divergence instead of ±Inf. Mixture (not add-ε) smoothing is deliberate:
// it is invariant to sample size, so a small decaying live window compared
// against a large frozen baseline does not read as drift when their shapes
// match.
const psiLambda = 0.01

// PSI is the Population Stability Index between a baseline and a live
// sketch: Σ (pᵢ − qᵢ)·ln(pᵢ/qᵢ) over smoothed bucket probabilities, minus
// the small-sample bias. PSI is symmetric-ish and non-negative; the industry
// reading is <0.1 stable, 0.1–0.25 moderate shift, >0.25 significant shift.
// An empty sketch reads as uniform; two empty sketches score 0.
//
// The bias term matters because the live window is deliberately small (it
// decays every evaluation): under identical distributions the raw PSI
// estimator's expectation is ≈ (k−1)·(1/n_base + 1/n_live) — the χ²
// degrees-of-freedom term, with k the occupied bucket count — which for an
// 8-plan window over 5 plan shapes is ≈0.6, far above any sane alarm
// threshold. Subtracting it (clamped at 0) makes "no drift" read near 0
// regardless of window size, while real distribution shifts score orders of
// magnitude above the correction.
//
//pythia:noalloc
func PSI(base, live *Sketch) float64 {
	const uniform = 1.0 / SketchBuckets
	bT := float64(base.Total)
	lT := float64(live.Total)
	var psi float64
	occupied := 0
	for i := range base.Counts {
		if base.Counts[i] > 0 || live.Counts[i] > 0 {
			occupied++
		}
		p := psiLambda * uniform
		if bT > 0 {
			p += (1 - psiLambda) * float64(base.Counts[i]) / bT
		} else {
			p = uniform
		}
		q := psiLambda * uniform
		if lT > 0 {
			q += (1 - psiLambda) * float64(live.Counts[i]) / lT
		} else {
			q = uniform
		}
		psi += (p - q) * math.Log(p/q)
	}
	if occupied > 1 && bT > 0 && lT > 0 {
		psi -= float64(occupied-1) * (1/bT + 1/lT)
	}
	if psi < 0 {
		return 0
	}
	return psi
}

// Profile is the distributional signature of a plan stream: a token sketch
// (every serialized plan token, position-free) and a fingerprint sketch
// (one whole-plan hash per plan — sensitive to plan-shape changes even when
// the token bag stays similar). Training freezes one as the drift baseline;
// the Monitor maintains a decaying live one.
type Profile struct {
	Tokens Sketch
	Prints Sketch
	Plans  uint64
}

// ObserveTokens folds one plan's serialized token sequence into the profile:
// each token into the token sketch, and the FNV-64a chain over the plan's
// *shape* tokens into the fingerprint sketch. Value tokens (serialize's
// "v:…" quantized constants) are excluded from the fingerprint — they vary
// per instance within a template, and chaining them would make every plan's
// fingerprint unique, turning the fingerprint sketch into noise. Shape =
// operators, objects, predicate columns and comparison ops, so the
// fingerprint pins the template family while the token sketch still sees the
// full distribution including constants.
//
//pythia:noalloc
func (p *Profile) ObserveTokens(tokens []string) {
	fp := sim.FNVOffset64
	for _, tok := range tokens {
		h := sim.FNV64a(tok)
		p.Tokens.Observe(h)
		if len(tok) >= 2 && tok[0] == 'v' && tok[1] == ':' {
			continue
		}
		fp = (fp ^ h) * sim.FNVPrime64
	}
	p.Prints.Observe(fp)
	p.Plans++
}

// Merge adds another profile's mass (used to combine per-workload training
// baselines into the system baseline).
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	p.Tokens.merge(&o.Tokens)
	p.Prints.merge(&o.Prints)
	p.Plans += o.Plans
}

// Hash is a stable identity over the profile's exact contents — the
// snapshot-baseline identity /stats reports across model swaps.
func (p *Profile) Hash() uint64 {
	if p == nil {
		return 0
	}
	h := sim.FNVOffset64
	mixIn := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (v >> s & 0xff)) * sim.FNVPrime64
		}
	}
	for _, c := range p.Tokens.Counts {
		mixIn(c)
	}
	for _, c := range p.Prints.Counts {
		mixIn(c)
	}
	mixIn(p.Plans)
	return h
}

// HashString renders Hash as the fixed-width hex string used in /stats.
func (p *Profile) HashString() string { return fmt.Sprintf("%016x", p.Hash()) }

// Divergence scores a live profile window against a baseline: the max of
// the token-sketch and fingerprint-sketch PSIs. Max (not mean) because the
// two sketches watch for different failure modes — a token-bag shift with
// stable shapes, or new plan shapes over a stable token bag — and either
// alone is drift.
//
//pythia:noalloc
func Divergence(base, live *Profile) float64 {
	t := PSI(&base.Tokens, &live.Tokens)
	f := PSI(&base.Prints, &live.Prints)
	return math.Max(t, f)
}
