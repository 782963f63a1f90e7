package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba) over a fixed parameter set.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	Clip   float64 // global gradient-norm clip; 0 disables
	params []*Param
	m, v   [][]float64 // moment estimates, one slice per parameter
	t      int

	// The step Begin set up for Update: the gradients' scale and the two
	// bias corrections.
	scale, bc1, bc2 float64
}

// NewAdam returns an optimizer with the usual defaults (lr as given,
// β1=0.9, β2=0.999, ε=1e-8) over params. It starts afresh: step 1, both
// moments zero, whatever an earlier optimizer did to the same parameters.
func NewAdam(lr float64, params []*Param) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params,
		m: make([][]float64, len(params)), v: make([][]float64, len(params))}
	// One allocation for every moment keeps a new optimizer cheap.
	buf := make([]float64, 2*ParamCount(params))
	for i, p := range params {
		n := len(p.W.Data)
		a.m[i], a.v[i], buf = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	}
	return a
}

// ZeroGrad clears every parameter's gradient.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// GradNorm returns the global L2 norm of all gradients: the square root of
// one SumSquares chain over every parameter, in order.
func (a *Adam) GradNorm() float64 {
	s := 0.0
	for _, p := range a.params {
		s = SumSquares(s, p.G.Data)
	}
	return math.Sqrt(s)
}

// SumSquares returns s + x₀² + x₁² + …, added one element at a time in
// order: a link of GradNorm's chain.
//
//pythia:noalloc
func SumSquares(s float64, x []float64) float64 {
	for _, v := range x {
		s += v * v
	}
	return s
}

// Step applies one Adam update on the mean of gradients accumulated over n
// samples, and consumes them: every gradient is +0 when it returns, as
// ZeroGrad would leave it, so a training loop calls ZeroGrad once before its
// first backward pass and not before each one. The clip compares the mean's
// norm ‖g/n‖ with Clip, so the applied scale is (1/n)·min(1, Clip/‖g/n‖);
// Step(1) is the per-sample update, and for a power-of-two n Step(n) on g is
// Step(1) on g/n bit for bit. Step is Begin, then Update over every
// parameter whole.
func (a *Adam) Step(n int) {
	norm := 0.0
	if a.Clip > 0 {
		norm = a.GradNorm()
	}
	a.Begin(n, norm)
	for i, p := range a.params {
		a.Update(i, 0, len(p.W.Data))
	}
}

// Begin starts Step(n) given norm, GradNorm's value (read only when Clip is
// set; a caller may chain it with SumSquares while the gradients are still
// being summed): it advances the step count and sets the clip scale.
// Updates then apply the step to ranges of elements; once every element of
// every parameter has had exactly one, the parameters are what Step(n)
// leaves, bit for bit, whatever the ranges and their order.
func (a *Adam) Begin(n int, norm float64) {
	a.t++
	inv := 1 / float64(n)
	scale := 1.0
	if mean := norm * inv; a.Clip > 0 && mean > a.Clip {
		scale = a.Clip / mean
	}
	a.scale = scale * inv
	a.bc1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.bc2 = 1 - math.Pow(a.Beta2, float64(a.t))
}

// Update applies the step Begin set up to elements [lo, hi) of parameter i
// (in the order NewAdam was given them) and sets their gradients to +0.
// Updates of disjoint ranges may run concurrently.
//
//pythia:noalloc
func (a *Adam) Update(i, lo, hi int) {
	adamRow(a.params[i].W.Data[lo:hi], a.params[i].G.Data[lo:hi], a.m[i][lo:hi], a.v[i][lo:hi],
		a.scale, a.Beta1, 1-a.Beta1, a.Beta2, 1-a.Beta2, a.bc1, a.bc2, a.LR, a.Eps)
}

// adamRowGo is Step's update of one parameter, with c1 = 1−β1 and c2 = 1−β2;
// it sets each g[i] to +0 once read. From t = 356 on, 1 − 0.9ᵗ rounds to
// exactly 1 and m/1 is m, so the division by bc1 is skipped there: about
// two steps in three of a 40-epoch training at four samples a step.
//
//pythia:noalloc
func adamRowGo(w, g, m, v []float64, scale, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i := range w {
		gi := g[i] * scale
		g[i] = 0
		m[i] = beta1*m[i] + c1*gi
		v[i] = beta2*v[i] + c2*gi*gi
		mhat := m[i]
		if bc1 != 1 {
			mhat /= bc1
		}
		vhat := v[i] / bc2
		w[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}

// ParamCount returns the total number of scalar parameters — the harness
// reports it as "model size", matching the paper's model-size discussion.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += len(p.W.Data)
	}
	return n
}
