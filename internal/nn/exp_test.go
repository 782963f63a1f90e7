package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// expInputs returns the inputs TestExpMatchesMath holds expInPlace to: the
// softmax range [−40, 0], all of [−745, 710], random bit patterns (every
// exponent, NaNs and infinities among them), and the edges math.Exp treats
// apart — ±0, ±Inf, NaN, its overflow bound, the last normal and the first
// subnormal result, the last nonzero result, and the halfway points where
// k = round(x·log₂e) steps — each with its neighbours one ulp away. The
// edges are scattered one per quad at every lane position, so the kernel
// stops at them and resumes after.
func expInputs(r *sim.Rand) []float64 {
	var in []float64
	for i := 0; i < 400000; i++ {
		in = append(in, -40*r.Float64())
	}
	for i := 0; i < 400000; i++ {
		in = append(in, -745+1455*r.Float64())
	}
	for i := 0; i < 200000; i++ {
		in = append(in, math.Float64frombits(r.Uint64()))
	}
	// (k + ½)·ln 2 below puts inputs on both sides of every step of k, the
	// subnormal (k < −1022) and overflow (k > 1023) edges among them;
	// −745.13… is the last x whose exp is not 0.
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		7.09782712893384e+02, -745.1332191019412, -1e300, 1e300,
		math.SmallestNonzeroFloat64, -math.MaxFloat64}
	for k := -1080; k <= 1030; k++ {
		edges = append(edges, (float64(k)+0.5)*math.Ln2, float64(k)*math.Ln2)
	}
	for _, e := range edges {
		for _, x := range []float64{math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1))} {
			in = append(in, -40*r.Float64(), -40*r.Float64(), -40*r.Float64(), -40*r.Float64())
			in[len(in)-1-r.Intn(4)] = x
		}
	}
	return in
}

// TestExpMatchesMath holds expInPlace to math.Exp bit for bit on over a
// million inputs, on every kernel path, at every length 0–9 and at a
// misaligned start, and checks that the assembly does the softmax range
// itself rather than handing every quad back.
func TestExpMatchesMath(t *testing.T) {
	in := expInputs(sim.NewRand(59))
	if len(in) < 1000000 {
		t.Fatalf("%d inputs, want at least 10⁶", len(in))
	}
	kernelPaths(t, func(t *testing.T) {
		got := misalign(&Mat{Rows: 1, Cols: len(in), Data: in})
		expInPlace(got.Data)
		for i, x := range in {
			g, w := got.Data[i], math.Exp(x)
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("exp(%v) (bits %#016x) = %v, math.Exp gives %v", x, math.Float64bits(x), g, w)
			}
		}
		for n := 0; n <= 9; n++ {
			x := append([]float64(nil), in[:n]...)
			expInPlace(x)
			for i, g := range x {
				if w := math.Exp(in[i]); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("len %d: exp(%v) = %v, math.Exp gives %v", n, in[i], g, w)
				}
			}
		}
		x := append([]float64(nil), in[:400000]...)
		if done := exp4(x); done != len(x) {
			t.Fatalf("exp4 did %d of %d inputs in [−40, 0]", done, len(x))
		}
	})
}

// scalarSoftmaxRows is SoftmaxRows as it was before the exponentials became
// a kernel and the scale moved into it: every element times scale, then
// math.Exp per element, summed as it goes, one row at a time.
func scalarSoftmaxRows(m *Mat, scale float64) {
	m.Scale(scale)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			row[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// TestSoftmaxRowsMatchesScalar holds SoftmaxRows to the scalar loop on 1 to
// 9 rows (every remainder of its four-row blocks, with and without a whole
// block before it) of 1 to 40 scores, so that the matrix's element count
// takes every remainder mod 4, and on the shapes a served prediction runs
// (37×37 and 36×36 score matrices, the pruned top layer's 1×37): ones
// attention-sized, ones spread far enough that some exponentials are
// subnormal or zero, ones holding ±Inf and NaN, and ones whose maximum is a
// tie of +0 and −0, at scale 1, attention's 1/√8 and two others, each from a
// misaligned start.
func TestSoftmaxRowsMatchesScalar(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		r := sim.NewRand(67)
		served := [][2]int{{37, 37}, {36, 36}, {1, 37}}
		for c := 0; c < 960; c++ {
			rows, cols := 1+r.Intn(9), 1+r.Intn(40)
			if c%16 == 15 {
				rows, cols = served[c/16%3][0], served[c/16%3][1]
			}
			m := misalign(randMat(r, rows, cols))
			spread := []float64{1, 30, 400}[c%3]
			scale := []float64{1, 1 / math.Sqrt(8), 0.37, 3}[c%4]
			m.Scale(spread)
			switch c % 5 {
			case 0:
				poison(r, m)
			case 1:
				zeroTies(r, m)
			}
			want := m.Clone()
			scalarSoftmaxRows(want, scale)
			m.SoftmaxRows(scale)
			bitwiseEq(t, fmt.Sprintf("case %d %dx%d spread %v scale %v", c, m.Rows, m.Cols, spread, scale), m, want)
		}
	})
}

// zeroTies makes every row of m non-positive with +0 and −0 among its
// elements, so that its maximum is a tie the two kernel paths may settle on
// different zeros.
func zeroTies(r *sim.Rand, m *Mat) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			row[j] = -math.Abs(v)
		}
		row[r.Intn(len(row))] = 0
		row[r.Intn(len(row))] = math.Copysign(0, -1)
	}
}
