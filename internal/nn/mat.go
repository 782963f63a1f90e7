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
// goroutine at a time, and parallelism is across the serve tier's replicas.
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

// AddRowVec adds vector v (length Cols) to every row of m in place.
func (m *Mat) AddRowVec(v []float64) {
	if len(v) != m.Cols {
		panic("nn: AddRowVec length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// SoftmaxRows applies a numerically stable softmax to each row in place:
// exp(v − max) per element, summed left to right, each times 1/sum. The
// exponentials run four lanes wide where the CPU allows (expInPlace), with
// math.Exp's bits.
func (m *Mat) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		for j, v := range row {
			row[j] = v - maxv
		}
		expInPlace(row)
		sum := 0.0
		for _, e := range row {
			sum += e
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
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
