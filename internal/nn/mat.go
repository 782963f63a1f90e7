// Package nn is a small, dependency-free neural network library sufficient
// to implement Pythia's hybrid model exactly as the paper specifies: a token
// embedding with sinusoidal position information, a multi-layer multi-head
// self-attention transformer encoder, a feed-forward multilabel decoder,
// BCE-with-logits loss, and Adam. Every layer implements a hand-derived
// backward pass, validated against numerical gradients in the test suite.
//
// The library is deliberately CPU-first and deterministic: all randomness
// flows from an explicit sim.Rand, so training the same model twice yields
// identical parameters — which is what makes the experiment harness
// reproducible. The compute kernels (kernels.go) are serial with a fixed
// accumulation order; an encoder and the decoders on it are driven by one
// goroutine at a time, and parallelism is across concurrent predictions, each
// on its own view of the shared weights.
// Scratch matrices come from a per-trunk frame arena (arena.go) so the
// steady-state training loop allocates nothing.
package nn

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix of float64.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zeroed rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("nn: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears all elements in place.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// shapeCheck panics with a clear message on dimension mismatches; every
// mismatch is a programming error in the model wiring.
func shapeCheck(cond bool, op string, a, b *Mat) {
	if !cond {
		panic(fmt.Sprintf("nn: %s shape mismatch: %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MatMul returns a @ b in a new matrix: the same loop as Pool.MatMulInto, and
// TestKernelsMatchNaive holds both to a plain triple loop. The hot paths use
// the destination-passing variants in kernels.go.
func MatMul(a, b *Mat) *Mat {
	shapeCheck(a.Cols == b.Rows, "matmul", a, b)
	out := NewMat(a.Rows, b.Cols)
	matMul(out, a, b)
	return out
}

// MatMulT1 returns aᵀ @ b (used for weight gradients: dW = Xᵀ dY).
func MatMulT1(a, b *Mat) *Mat {
	shapeCheck(a.Rows == b.Rows, "matmulT1", a, b)
	out := NewMat(a.Cols, b.Cols)
	matMulT1(out, a, b)
	return out
}

// MatMulT2 returns a @ bᵀ (used for input gradients: dX = dY Wᵀ).
func MatMulT2(a, b *Mat) *Mat {
	shapeCheck(a.Cols == b.Cols, "matmulT2", a, b)
	out := NewMat(a.Rows, b.Rows)
	matMulT2(out, a, b)
	return out
}

// Add returns a + b element-wise.
func Add(a, b *Mat) *Mat {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "add", a, b)
	out := NewMat(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Mat) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "add", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Scale multiplies every element by s in place and returns m.
func (m *Mat) Scale(s float64) *Mat {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// SoftmaxRows sets each row of m to softmax(scale·row), numerically stable:
// each v becomes v·scale, then exp(v·scale − max) with max the row's largest
// v·scale, and each of those times 1/sum, the sum taken left to right. Three
// kernels (kernels.go): softmaxShift scales and shifts each row,
// expInPlace takes the exponentials over the whole matrix at once with
// math.Exp's bits, and softmaxNorm sums and normalises each row.
func (m *Mat) SoftmaxRows(scale float64) {
	n := m.Cols
	if n == 0 {
		return
	}
	x := m.Data[:m.Rows*n]
	softmaxShift(x, n, scale)
	expInPlace(x)
	softmaxNorm(x, n)
}

// rows4 returns the one to four n-wide rows of x, the last repeated in the
// places of missing ones. A loop over the four that writes a value computed
// from the rows' own elements writes a repeated row twice with one value.
func rows4(x []float64, n int) (r0, r1, r2, r3 []float64) {
	last := len(x)/n - 1
	row := func(q int) []float64 { return x[min(q, last)*n:][:n] }
	return row(0), row(1), row(2), row(3)
}

// Sigmoid returns the element-wise logistic function of x, computed in a
// numerically stable branch-free-ish way.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Norm returns the Frobenius norm (tests use it to compare gradients).
func (m *Mat) Norm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}
