package nn

import (
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// bitwiseEq fails the test unless got and want match bit for bit — the
// determinism contract is exact equality, not tolerance, and it covers the
// sign of a zero.
func bitwiseEq(t *testing.T, op string, got, want *Mat) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", op, i, got.Data[i], want.Data[i])
		}
	}
}

// kernelShapes covers tall outputs, the decoder's flat 1×D @ D×wide shape and
// odd sizes that leave a remainder in every four-way block.
var kernelShapes = []struct{ m, k, n int }{
	{37, 29, 41},
	{64, 64, 256},
	{1, 64, 1024},
	{3, 128, 65},
	{128, 16, 16},
}

// TestParallelKernelsMatchSerialBitwise holds the destination-passing kernels
// to the allocating forms in mat.go.
func TestParallelKernelsMatchSerialBitwise(t *testing.T) {
	var p *Pool // the kernels are nil-safe
	r := sim.NewRand(2)
	for _, s := range kernelShapes {
		a := randMat(r, s.m, s.k)
		b := randMat(r, s.k, s.n)
		got := NewMat(s.m, s.n)
		p.MatMulInto(got, a, b)
		bitwiseEq(t, "MatMulInto", got, MatMul(a, b))

		at := randMat(r, s.k, s.m) // aᵀ @ b with a: k×m, b: k×n → m×n
		bt := randMat(r, s.k, s.n)
		got = NewMat(s.m, s.n)
		p.MatMulT1Into(got, at, bt)
		bitwiseEq(t, "MatMulT1Into", got, MatMulT1(at, bt))

		c := randMat(r, s.m, s.k)
		d := randMat(r, s.n, s.k) // c @ dᵀ → m×n
		got = NewMat(s.m, s.n)
		p.MatMulT2Into(got, c, d)
		bitwiseEq(t, "MatMulT2Into", got, MatMulT2(c, d))
	}
}

func TestAccumT1MatchesSerialAccumulation(t *testing.T) {
	p := NewPool(0)
	r := sim.NewRand(9)
	x := randMat(r, 48, 33)
	// Half-sparse activations, like ReLU output.
	for i := range x.Data {
		if i%2 == 0 {
			x.Data[i] = 0
		}
	}
	dy := randMat(r, 48, 67)

	// Serial reference: the original r-outer skip loop.
	want := NewMat(33, 67)
	for i := range want.Data {
		want.Data[i] = 0.5 // nonzero start: accumulation must add, not overwrite
	}
	for rr := 0; rr < x.Rows; rr++ {
		xrow := x.Row(rr)
		dyrow := dy.Row(rr)
		for i, xv := range xrow {
			if xv == 0 {
				continue
			}
			orow := want.Row(i)
			for j, dv := range dyrow {
				orow[j] += xv * dv
			}
		}
	}

	got := NewMat(33, 67)
	for i := range got.Data {
		got.Data[i] = 0.5
	}
	p.AccumT1Into(got, x, dy)
	bitwiseEq(t, "AccumT1Into", got, want)
}

func TestPoolElementwiseAndSoftmax(t *testing.T) {
	p := NewPool(0)
	r := sim.NewRand(3)
	a := randMat(r, 130, 70)
	b := randMat(r, 130, 70)

	sum := NewMat(130, 70)
	p.AddInto(sum, a, b)
	bitwiseEq(t, "AddInto", sum, Add(a, b))

	acc := a.Clone()
	AddInPlace(acc, b)
	bitwiseEq(t, "AddInPlace", acc, sum)
}
