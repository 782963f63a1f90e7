package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// rowRanges splits [0, rows) into ranges of random widths and returns them
// in random order.
func rowRanges(r *sim.Rand, rows int) [][2]int {
	var out [][2]int
	for lo := 0; lo < rows; {
		hi := min(lo+1+r.Intn(4), rows)
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// nanScratch is ApplyRows scratch that already holds n NaNs, so that a
// gathered element read before it is written shows up in a result.
func nanScratch(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// TestOneRowGradsMatchSequential: ApplyRows on B one-row linear entries,
// which runs one gemm with k = B over the gathered xᵀ columns and dy rows,
// gives every weight and bias gradient element the bits of B addLinearGrad
// calls in entry order, for B = 1 to 5. It splits the rows into ranges
// applied in random order, and its inputs include ±0, an all-zero x, an
// all-zero dy, ±Inf and NaN, on gradients that start from random values and
// −0. It fails if the gather puts a sample in the wrong column or row, if the
// k loop adds out of order, or if a bias is added by no range or by two.
func TestOneRowGradsMatchSequential(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		r := sim.NewRand(71)
		for _, shape := range [][2]int{{1, 1}, {5, 7}, {9, 4}, {32, 64}, {64, 27}, {37, 300}} {
			in, out := shape[0], shape[1]
			for b := 1; b <= 5; b++ {
				w, bias := NewParam("w", in, out), NewParam("b", 1, out)
				start := randMat(r, in, out)
				poison(r, start)
				copy(w.G.Data, start.Data)
				want, wantBias := NewParam("w", in, out), NewParam("b", 1, out)
				copy(want.G.Data, start.Data)
				es := make([]GradEntry, b)
				for k := range es {
					xt, dy := randMat(r, in, 1), randMat(r, 1, out)
					sparsify(r, xt)
					sparsify(r, dy)
					switch k % 4 {
					case 1:
						clear(xt.Data)
					case 2:
						clear(dy.Data)
					case 3:
						poison(r, dy)
					}
					es[k] = GradEntry{&gradAdd{kind: linearGrad, p: w, q: bias, a: xt, dy: dy}}
					addLinearGrad(want, wantBias, xt, dy, 0, in)
				}
				scratch := nanScratch(in*b + b*out)
				for _, rg := range rowRanges(r, in) {
					ApplyRows(es, rg[0], rg[1], &scratch)
				}
				tag := fmt.Sprintf("%dx%d, %d entries: ", in, out, b)
				bitwiseEq(t, tag+"dW", w.G, want.G)
				bitwiseEq(t, tag+"db", bias.G, wantBias.G)
			}
		}
	})
}

// TestApplyRowsSplitsMatchWhole: for every kind of entry — a linear layer's
// with several dy rows, a layer norm's and an embedding's, whose ids repeat
// rows — ApplyRows over row ranges in random order gives the gradients that
// applying each whole entry in sample order gives (what an unbound layer's
// Backward adds at once). Fails if a range adds rows outside itself, an
// embedding range drops or doubles an id at its edge, or the bias goes with
// a range other than the first.
func TestApplyRowsSplitsMatchWhole(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		r := sim.NewRand(73)
		const samples = 4
		for round := 0; round < 20; round++ {
			in, out, vocab, d := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(12), 1+r.Intn(9)
			got := []*Param{NewParam("w", in, out), NewParam("b", 1, out), NewParam("g", 1, d), NewParam("lb", 1, d), NewParam("emb", vocab, d)}
			want := []*Param{NewParam("w", in, out), NewParam("b", 1, out), NewParam("g", 1, d), NewParam("lb", 1, d), NewParam("emb", vocab, d)}
			for i, p := range got {
				start := randMat(r, p.G.Rows, p.G.Cols)
				sparsify(r, start)
				copy(p.G.Data, start.Data)
				copy(want[i].G.Data, start.Data)
			}
			entries := func(ps []*Param, m []*Mat, ids [][]int, k int) []gradAdd {
				return []gradAdd{
					{kind: linearGrad, p: ps[0], q: ps[1], a: m[0], dy: m[1]},
					{kind: layerNormGrad, p: ps[2], q: ps[3], a: m[2], dy: m[3]},
					{kind: embeddingGrad, p: ps[4], ids: ids[k], dy: m[4]},
				}
			}
			var gotLog [][]gradAdd
			ids := make([][]int, samples)
			for k := 0; k < samples; k++ {
				n := 1 + r.Intn(6)
				m := []*Mat{randMat(r, in, n), randMat(r, n, out), randMat(r, n, d), randMat(r, n, d), randMat(r, n, d)}
				for _, x := range m {
					sparsify(r, x)
				}
				for range n {
					ids[k] = append(ids[k], r.Intn(vocab))
				}
				for _, e := range entries(want, m, ids, k) {
					e.apply(0, e.p.W.Rows)
				}
				gotLog = append(gotLog, entries(got, m, ids, k))
			}
			var scratch []float64
			for pos, rows := range []int{in, 1, vocab} {
				es := make([]GradEntry, samples)
				for k := range es {
					es[k] = GradEntry{&gotLog[k][pos]}
				}
				for _, rg := range rowRanges(r, rows) {
					ApplyRows(es, rg[0], rg[1], &scratch)
				}
			}
			for i, p := range got {
				bitwiseEq(t, fmt.Sprintf("round %d %s", round, p.Name), p.G, want[i].G)
			}
		}
	})
}
