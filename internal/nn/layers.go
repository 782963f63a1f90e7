package nn

import (
	"math"
	"sync"

	"github.com/pythia-db/pythia/internal/sim"
)

// Param is one learnable tensor with its gradient accumulator. The optimizer
// state is Adam's.
type Param struct {
	Name string
	W, G *Mat
}

// NewParam allocates a parameter of the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: NewMat(rows, cols), G: NewMat(rows, cols)}
}

// XavierInit fills the parameter with Glorot-uniform values.
func (p *Param) XavierInit(r *sim.Rand) {
	limit := math.Sqrt(6.0 / float64(p.W.Rows+p.W.Cols))
	for i := range p.W.Data {
		p.W.Data[i] = (2*r.Float64() - 1) * limit
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Module is anything owning parameters; the optimizer walks Params().
type Module interface {
	Params() []*Param
}

// Linear is a fully connected layer Y = X W + b.
type Linear struct {
	In, Out int
	Weight  *Param // In×Out
	Bias    *Param // 1×Out

	rt Runtime
	x  *Mat // cached input for backward
}

// SetRuntime binds the scratch arena the layer computes with. The zero
// Runtime (the default) allocates from the heap.
func (l *Linear) SetRuntime(rt Runtime) { l.rt = rt }

// NewLinear builds a Xavier-initialized linear layer.
func NewLinear(name string, in, out int, r *sim.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		Weight: NewParam(name+".w", in, out),
		Bias:   NewParam(name+".b", 1, out),
	}
	l.Weight.XavierInit(r)
	return l
}

// share returns a layer over l's parameters with its own input cache,
// computing in rt.
func (l *Linear) share(rt Runtime) *Linear {
	return &Linear{In: l.In, Out: l.Out, Weight: l.Weight, Bias: l.Bias, rt: rt}
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Forward computes X W + b, caching X for Backward.
//
//pythia:noalloc
func (l *Linear) Forward(x *Mat) *Mat { return l.forward(x, false) }

// forward computes X W + b, through gemm's ReLU when relu is set, in one
// kernel call, caching X for Backward.
//
//pythia:noalloc
func (l *Linear) forward(x *Mat, relu bool) *Mat {
	shapeCheck(x.Cols == l.In, "linear", x, l.Weight.W)
	l.x = x
	y := l.rt.get(x.Rows, l.Out)
	gemm(y.Data, l.Out, x.Data, l.In, l.Weight.W.Data, l.Out, x.Rows, l.In, l.Out, l.Bias.W.Data, relu, false)
	return y
}

// Backward accumulates dW, db (or logs them, see GradLog) and returns dX.
// The weight gradient is accumulated in place, dW += xᵀ dy, as one
// accumulating gemm over a transposed copy of x from the arena
// (addLinearGrad): each element of dW adds its products over ascending
// rows, as the triple loop does. The seed code skipped a row whose
// activation was exactly zero (ReLU outputs); adding its ±0·dy instead
// changes no bit for a finite dy, because a gradient starts at +0 (ZeroGrad,
// Adam.Step) and a sum that starts at +0 is never −0
// (TestWeightGradSkipWasNoOp).
//
// dX = dy·Wᵀ as dot products puts each output on one serial add chain. From
// transposeRows rows of dy on, it runs instead as dy @ Wᵀ over a transposed
// copy of W from the arena, whose kernel (gemm) keeps tiles of outputs in
// registers four lanes wide; every output is still ((0 + p₀) + p₁) + …
// over ascending j, so the bits are the same
// (TestLinearBackwardMatchesNaive). For fewer rows the copy costs about as
// much as the product.
//
//pythia:noalloc
func (l *Linear) Backward(dy *Mat) *Mat {
	shapeCheck(l.x.Rows == dy.Rows, "linear backward", l.x, dy)
	xt := l.rt.get(l.In, dy.Rows)
	transposeInto(xt, l.x)
	l.rt.addGrad(gradAdd{kind: linearGrad, p: l.Weight, q: l.Bias, a: xt, dy: dy})
	dx := l.rt.get(dy.Rows, l.In)
	if dy.Rows < transposeRows {
		l.rt.Pool.MatMulT2Into(dx, dy, l.Weight.W)
		return dx
	}
	wt := l.rt.get(l.Out, l.In)
	transposeInto(wt, l.Weight.W)
	l.rt.Pool.MatMulInto(dx, dy, wt)
	return dx
}

// addLinearGrad adds rows [lo, hi) of xᵀ·dy into w's gradient, given xt =
// xᵀ, and, when lo is 0, dy's column sums into b's.
//
//pythia:noalloc
func addLinearGrad(w, b *Param, xt, dy *Mat, lo, hi int) {
	g := w.G
	gemm(g.Data[lo*g.Cols:], g.Cols, xt.Data[lo*xt.Cols:], xt.Cols, dy.Data, dy.Cols, hi-lo, dy.Rows, dy.Cols, nil, false, true)
	if lo == 0 {
		addBiasGrad(b, dy)
	}
}

// addBiasGrad adds dy's column sums into b's gradient, row by row.
//
//pythia:noalloc
func addBiasGrad(b *Param, dy *Mat) {
	bg := b.G.Data
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j := range row {
			bg[j] += row[j]
		}
	}
}

// transposeRows is the fewest rows of dy for which Linear.Backward transposes
// W; see there.
const transposeRows = 4

// Embedding maps token ids to D-dimensional vectors.
type Embedding struct {
	V, D  int
	Table *Param // V×D

	rt  Runtime
	ids []int // cached for backward
}

// NewEmbedding builds an embedding table with small-normal init.
func NewEmbedding(name string, vocab, dim int, r *sim.Rand) *Embedding {
	e := &Embedding{V: vocab, D: dim, Table: NewParam(name+".emb", vocab, dim)}
	for i := range e.Table.W.Data {
		e.Table.W.Data[i] = r.NormFloat64() * 0.02
	}
	return e
}

// Params returns the table.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// Forward gathers the rows for ids into an n×D matrix.
func (e *Embedding) Forward(ids []int) *Mat {
	e.ids = ids
	out := e.rt.get(len(ids), e.D)
	for i, id := range ids {
		if id < 0 || id >= e.V {
			panic("nn: embedding id out of range")
		}
		copy(out.Row(i), e.Table.W.Row(id))
	}
	return out
}

// Backward scatters the output gradient back into the used rows; a token id
// that repeats within a sequence accumulates into one row.
func (e *Embedding) Backward(dy *Mat) {
	e.rt.addGrad(gradAdd{kind: embeddingGrad, p: e.Table, ids: e.ids, dy: dy})
}

// addEmbeddingGrad adds row i of dy into row ids[i] of t's gradient, in
// ascending i, for the ids in [lo, hi).
//
//pythia:noalloc
func addEmbeddingGrad(t *Param, ids []int, dy *Mat, lo, hi int) {
	for i, id := range ids {
		if id < lo || id >= hi {
			continue
		}
		grow := t.G.Row(id)
		drow := dy.Row(i)
		for j := range drow {
			grow[j] += drow[j]
		}
	}
}

// AddPositional adds sinusoidal position encodings (Vaswani et al.) to x in
// place — "the serialized query tokens are first appended with sequence
// information to be used by a transformer" (paper §5.1).
func AddPositional(x *Mat) {
	for i, v := range positional(x.Rows, x.Cols) {
		x.Data[i] += v
	}
}

// posTables memoizes the position encodings per model width: byDim[d] holds
// rows·d values in row-major order and only ever grows. The values depend
// on (position, column, d) alone, so every model of one width shares a table,
// and computing them once takes a Pow and a Sin or Cos per element off every
// forward pass.
var posTables = struct {
	sync.RWMutex
	byDim map[int][]float64
}{byDim: map[int][]float64{}}

// positional returns the rows×d position encodings. The slice is shared and
// must not be written to.
func positional(rows, d int) []float64 {
	posTables.RLock()
	t := posTables.byDim[d]
	posTables.RUnlock()
	if len(t) >= rows*d {
		return t[:rows*d]
	}
	posTables.Lock()
	defer posTables.Unlock()
	// Appending never rewrites an element a reader can see: readers hold
	// slices of the old length, and growth past the capacity copies.
	t = posTables.byDim[d]
	for pos := len(t) / d; pos < rows; pos++ {
		for j := 0; j < d; j++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(j/2))/float64(d))
			if j%2 == 0 {
				t = append(t, math.Sin(angle))
			} else {
				t = append(t, math.Cos(angle))
			}
		}
	}
	posTables.byDim[d] = t
	return t[:rows*d]
}

// LayerNorm normalizes each row to zero mean / unit variance, then applies a
// learned gain and bias.
type LayerNorm struct {
	D    int
	Gain *Param // 1×D
	Bias *Param // 1×D

	rt    Runtime
	x     *Mat
	xhat  *Mat
	invSD []float64
}

const lnEps = 1e-5

// NewLayerNorm builds a layer norm with unit gain and zero bias.
func NewLayerNorm(name string, d int) *LayerNorm {
	ln := &LayerNorm{D: d, Gain: NewParam(name+".g", 1, d), Bias: NewParam(name+".b", 1, d)}
	for i := range ln.Gain.W.Data {
		ln.Gain.W.Data[i] = 1
	}
	return ln
}

// share returns a layer norm over ln's parameters with its own caches,
// computing in rt.
func (ln *LayerNorm) share(rt Runtime) *LayerNorm {
	return &LayerNorm{D: ln.D, Gain: ln.Gain, Bias: ln.Bias, rt: rt}
}

// Params returns gain and bias.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gain, ln.Bias} }

// Forward normalizes each row, four rows' statistics at a time (lnStats):
// four add chains in flight instead of one, each row's sums in its own order.
func (ln *LayerNorm) Forward(x *Mat) *Mat {
	ln.x = x
	ln.xhat = ln.rt.get(x.Rows, x.Cols)
	if cap(ln.invSD) < x.Rows {
		ln.invSD = make([]float64, x.Rows)
	}
	ln.invSD = ln.invSD[:x.Rows]
	out := ln.rt.get(x.Rows, x.Cols)
	g, b := ln.Gain.W.Data, ln.Bias.W.Data
	for i0 := 0; i0 < x.Rows; i0 += 4 {
		rows := min(4, x.Rows-i0)
		mean := lnStats(x.Data[i0*x.Cols:(i0+rows)*x.Cols], x.Cols, ln.invSD[i0:i0+rows])
		for q := 0; q < rows; q++ {
			i := i0 + q
			mu, inv := mean[q], ln.invSD[i]
			xh, orow := ln.xhat.Row(i), out.Row(i)
			for j, v := range x.Row(i) {
				xh[j] = (v - mu) * inv
				orow[j] = xh[j]*g[j] + b[j]
			}
		}
	}
	return out
}

// lnStats returns the mean, Σ v / d, of each of the one to four d-wide rows
// in x and sets invSD[q] to 1/√(Σ (v − mean)² / d + ε), each sum in
// ascending column order, four rows' sums interleaved. With fewer than four
// rows the last one fills the missing places and their results are dropped.
func lnStats(x []float64, d int, invSD []float64) (mean [4]float64) {
	r0, r1, r2, r3 := rows4(x, d)
	var s0, s1, s2, s3 float64
	for j := range r0 {
		s0 += r0[j]
		s1 += r1[j]
		s2 += r2[j]
		s3 += r3[j]
	}
	n := float64(d)
	m0, m1, m2, m3 := s0/n, s1/n, s2/n, s3/n
	s0, s1, s2, s3 = 0, 0, 0, 0
	for j := range r0 {
		d0, d1, d2, d3 := r0[j]-m0, r1[j]-m1, r2[j]-m2, r3[j]-m3
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	vars := [4]float64{s0, s1, s2, s3}
	for q := range invSD {
		invSD[q] = 1 / math.Sqrt(vars[q]/n+lnEps)
	}
	return [4]float64{m0, m1, m2, m3}
}

// Backward returns dX and accumulates (or logs) the gain and bias gradients.
func (ln *LayerNorm) Backward(dy *Mat) *Mat {
	ln.rt.addGrad(gradAdd{kind: layerNormGrad, p: ln.Gain, q: ln.Bias, a: ln.xhat, dy: dy})
	dx := ln.rt.get(dy.Rows, dy.Cols)
	dxhat := ln.rt.get(dy.Rows, dy.Cols)
	g := ln.Gain.W.Data
	n := float64(dy.Cols)
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := ln.xhat.Row(i)
		// dxhat = dy * g; dx = invSD*(dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)).
		var sum1, sum2 float64
		dxh := dxhat.Row(i)
		for j, d := range dyr {
			dxh[j] = d * g[j]
			sum1 += dxh[j]
			sum2 += dxh[j] * xh[j]
		}
		inv := ln.invSD[i]
		dxr := dx.Row(i)
		for j := range dxr {
			dxr[j] = inv * (dxh[j] - sum1/n - xh[j]*sum2/n)
		}
	}
	return dx
}

// addLayerNormGrad adds Σᵢ dyᵢ·x̂ᵢ into gain's gradient and Σᵢ dyᵢ into
// bias's, row-ascending.
//
//pythia:noalloc
func addLayerNormGrad(gain, bias *Param, xhat, dy *Mat) {
	gg, bg := gain.G.Data, bias.G.Data
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := xhat.Row(i)
		for j, d := range dyr {
			gg[j] += d * xh[j]
			bg[j] += d
		}
	}
}
