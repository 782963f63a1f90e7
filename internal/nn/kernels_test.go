package nn

import (
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// bitwiseEq fails the test unless got and want match bit for bit — the
// determinism contract is exact equality, not tolerance, and it covers the
// sign of a zero. A NaN matches any NaN: which of two NaN operands an add
// returns follows the register order the compiler picks, and Go leaves a
// NaN's payload unspecified.
func bitwiseEq(t *testing.T, op string, got, want *Mat) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", op, i, g, w)
		}
	}
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
