package nn

import "sync/atomic"

// GradLog defers the gradient sums of backward passes. A layer whose
// Runtime has a log bound records what its Backward would add into its
// parameters' gradients — the inputs (xᵀ, x̂ or ids) and dy, alive until the
// arena's next Release — instead of adding it; ApplyRows adds the entries
// later through the function an unbound layer runs at once.
//
// model.Trunk trains a group of samples on several cores this way with the
// bits of one: each sample's backward pass logs on a view of its own, then
// each log position's entries are applied in sample order, the order one
// view would have added them in, one range of weight rows at a time.
// Backward passes through the same modules log the same parameters at the
// same positions.
//
// Appends are not safe for concurrent use. Each append publishes the new
// length with an atomic store, so another goroutine may read an entry below
// Len while the owner appends more, as long as Reserve made room for every
// append: an append past the reserved room moves the entries.
type GradLog struct {
	entries []gradAdd    // the logged ones are entries[:n]
	owned   int          // n, as the appending goroutine keeps it
	n       atomic.Int64 // published
}

// gradAdd is one Backward's contribution to its parameters' gradients:
// dW += a·dy and db += Σ dy for a linear layer (a holds xᵀ), the gain and
// bias sums for a layer norm (a holds x̂), the scatter of dy's rows into the
// table rows ids for an embedding (q nil).
type gradAdd struct {
	kind  gradKind
	p, q  *Param
	a, dy *Mat
	ids   []int
}

type gradKind uint8

const (
	linearGrad gradKind = iota
	layerNormGrad
	embeddingGrad
)

// Len is the number of entries logged since the last Reset.
func (g *GradLog) Len() int { return int(g.n.Load()) }

// Reset drops every entry; call it with the arena's Release.
func (g *GradLog) Reset() {
	clear(g.entries[:g.owned])
	g.owned = 0
	g.n.Store(0)
}

// Reserve makes room for n entries in all, so that appends up to the n-th
// move no entry.
func (g *GradLog) Reserve(n int) {
	if n > len(g.entries) {
		g.entries = append(g.entries, make([]gradAdd, n-len(g.entries))...)
	}
}

// Params returns the parameters entry i adds into: a linear layer's weight
// and bias, a layer norm's gain and bias, or an embedding's table and nil.
// ApplyRows splits the first one's rows.
func (g *GradLog) Params(i int) (first, second *Param) { return g.entries[i].p, g.entries[i].q }

// GradEntry is one logged entry, as Entry returns it, for ApplyRows.
type GradEntry struct{ e *gradAdd }

// Entry returns entry i. It stays valid until the next Reset.
func (g *GradLog) Entry(i int) GradEntry { return GradEntry{&g.entries[i]} }

// ApplyRows adds entries es — one log position's, one per sample, in sample
// order — into rows [lo, hi) of their first parameter's gradient: a linear
// layer's weight rows, and its bias when lo is 0; an embedding's table rows;
// a layer norm's gain and bias, one row each, so [0, 1). Every gradient
// element gets the adds that applying the entries one after another gives,
// in the same order, so disjoint row ranges of a position may be applied
// concurrently and in any order, and a range's samples in two calls, the
// first samples and then the rest.
//
// When every entry is a linear layer's with a one-row dy (the decoders and
// the pruned encoder's last token), the adds run as one gemm with k =
// len(es) over the entries' xᵀ columns and dy rows, gathered into *scratch
// (grown as needed): gemm adds each element's products in ascending k, the
// order of len(es) one-row passes (TestOneRowGradsMatchSequential).
//
//pythia:noalloc
func ApplyRows(es []GradEntry, lo, hi int, scratch *[]float64) {
	if len(es) > 1 && oneRowLinear(es) {
		addLinearGradRows(es, lo, hi, scratch)
		return
	}
	for _, g := range es {
		g.e.apply(lo, hi)
	}
}

// oneRowLinear is whether every entry of es is a linear layer's with a
// one-row dy.
//
//pythia:noalloc
func oneRowLinear(es []GradEntry) bool {
	for _, g := range es {
		if g.e.kind != linearGrad || g.e.dy.Rows != 1 {
			return false
		}
	}
	return true
}

// addLinearGradRows is ApplyRows on one-row linear entries: rows [lo, hi)
// of dW += Σₖ xₖᵀ·dyₖ as one gemm over a = the (hi−lo)×len(es) block of the
// xᵀ columns and b = the len(es) dy rows, and db += dyₖ per entry.
//
//pythia:noalloc
func addLinearGradRows(es []GradEntry, lo, hi int, scratch *[]float64) {
	k, w := len(es), es[0].e.p.G
	n, m := w.Cols, hi-lo
	if need := m*k + k*n; cap(*scratch) < need {
		*scratch = make([]float64, need)
	}
	a, b := (*scratch)[:m*k], (*scratch)[m*k:m*k+k*n]
	for s, g := range es {
		xt := g.e.a.Data[lo:hi]
		for i, x := range xt {
			a[i*k+s] = x
		}
		copy(b[s*n:(s+1)*n], g.e.dy.Data)
	}
	gemm(w.Data[lo*n:], n, a, k, b, n, m, k, n, nil, false, true)
	if lo == 0 {
		for _, g := range es {
			addBiasGrad(g.e.q, g.e.dy)
		}
	}
}

// apply adds e into rows [lo, hi) of its first parameter's gradient, as
// ApplyRows does.
//
//pythia:noalloc
func (e *gradAdd) apply(lo, hi int) {
	switch e.kind {
	case linearGrad:
		addLinearGrad(e.p, e.q, e.a, e.dy, lo, hi)
	case layerNormGrad:
		addLayerNormGrad(e.p, e.q, e.a, e.dy)
	case embeddingGrad:
		addEmbeddingGrad(e.p, e.ids, e.dy, lo, hi)
	}
}

// addGrad applies e at once, or logs it when a log is bound.
//
//pythia:noalloc
func (rt Runtime) addGrad(e gradAdd) {
	if rt.Log == nil {
		e.apply(0, e.p.W.Rows)
		return
	}
	l := rt.Log
	if l.owned == len(l.entries) {
		l.entries = append(l.entries, e)
		l.entries = l.entries[:cap(l.entries)]
	}
	l.entries[l.owned] = e
	l.owned++
	l.n.Store(int64(l.owned))
}
