package nn

// GradLog defers the gradient sums of backward passes. A layer whose
// Runtime has a log bound records what its Backward would add into its
// parameters' gradients — the inputs (xᵀ, x̂ or ids) and dy, alive until the
// arena's next Release — instead of adding it; Apply adds entry i later
// through the function an unbound layer runs at once.
//
// model.Trunk trains a group of samples on several cores this way with the
// bits of one: each sample's backward pass logs on a view of its own, then
// each parameter's entries are applied in sample order, the order one view
// would have added them in. Backward passes through the same modules log
// the same parameters at the same positions.
//
// Appends are not safe for concurrent use. Once the pass has finished,
// entries that name different parameters may be applied concurrently.
type GradLog struct {
	entries []gradAdd
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
func (g *GradLog) Len() int { return len(g.entries) }

// Reset drops every entry; call it with the arena's Release.
func (g *GradLog) Reset() {
	clear(g.entries)
	g.entries = g.entries[:0]
}

// Param returns the first parameter entry i adds into: a linear layer's
// weight, a layer norm's gain or an embedding's table.
func (g *GradLog) Param(i int) *Param { return g.entries[i].p }

// Apply adds entry i into its parameters' gradients.
//
//pythia:noalloc
func (g *GradLog) Apply(i int) { g.entries[i].apply() }

//pythia:noalloc
func (e *gradAdd) apply() {
	switch e.kind {
	case linearGrad:
		addLinearGrad(e.p, e.q, e.a, e.dy)
	case layerNormGrad:
		addLayerNormGrad(e.p, e.q, e.a, e.dy)
	case embeddingGrad:
		addEmbeddingGrad(e.p, e.ids, e.dy)
	}
}

// addGrad applies e at once, or logs it when a log is bound.
//
//pythia:noalloc
func (rt Runtime) addGrad(e gradAdd) {
	if rt.Log == nil {
		e.apply()
		return
	}
	rt.Log.entries = append(rt.Log.entries, e)
}
