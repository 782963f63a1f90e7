package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// Differential oracles: the blocked kernels and the attention block against
// plain loops written here, and the pruned encoder against the same layers
// run over every row.

func naiveMatMul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulT1(a, b *Mat) *Mat {
	out := NewMat(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, i) * b.At(r, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// naiveAccumT1 is dst += aᵀ @ b as the weight gradient was before it became
// an accumulating gemm: a step whose left factor is exactly zero is skipped,
// not added as a zero. TestWeightGradSkipWasNoOp holds Linear.Backward to it.
func naiveAccumT1(dst, a, b *Mat) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			for r := 0; r < a.Rows; r++ {
				if av := a.At(r, i); av != 0 {
					dst.Set(i, j, dst.At(i, j)+av*b.At(r, j))
				}
			}
		}
	}
}

func naiveMatMulT2(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// sparsify zeroes about a third of m, some as −0.
func sparsify(r *sim.Rand, m *Mat) {
	for i := range m.Data {
		switch r.Intn(6) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
}

// poison sets about one entry in eight of m to +Inf, −Inf, NaN or −0.
func poison(r *sim.Rand, m *Mat) {
	for i := range m.Data {
		if r.Intn(8) == 0 {
			m.Data[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}[r.Intn(4)]
		}
	}
}

// misalign returns a copy of m whose data starts one element into its
// backing array, so that no row of an even-width matrix is 16-byte aligned.
func misalign(m *Mat) *Mat {
	c := &Mat{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, 1+len(m.Data))[1:]}
	copy(c.Data, m.Data)
	return c
}

func TestKernelsMatchNaive(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		p := NewPool(0)
		r := sim.NewRand(17)
		for c := 0; c < 480; c++ {
			// Sizes 1..48 hit every remainder of the four-way blocks; the
			// forced cases add 1-row, 1-deep and 0- to 7-wide products (every
			// remainder of a four-lane block, with and without a whole block
			// before it) and the decoder's flat, wide one.
			m, k, n := 1+r.Intn(48), 1+r.Intn(48), 1+r.Intn(48)
			switch c % 8 {
			case 1:
				m = 1
			case 3:
				n = r.Intn(8)
			case 5:
				k = 1
			case 7:
				m, n = 1+r.Intn(3), 300+r.Intn(900)
			}
			a, at, b, bt := randMat(r, m, k), randMat(r, k, m), randMat(r, k, n), randMat(r, n, k)
			if c%2 == 0 {
				sparsify(r, a)
				sparsify(r, at)
			}
			if c%4 < 2 {
				poison(r, b)
				poison(r, bt)
			}
			got := NewMat(m, n)
			if c%3 == 0 {
				a, at, b, bt, got = misalign(a), misalign(at), misalign(b), misalign(bt), misalign(got)
			}
			wantMM, wantT1, wantT2 := naiveMatMul(a, b), naiveMatMulT1(at, b), naiveMatMulT2(a, bt)
			tag := fmt.Sprintf(" case %d %dx%dx%d", c, m, k, n)
			p.MatMulInto(got, a, b)
			bitwiseEq(t, "MatMulInto"+tag, got, wantMM)
			p.MatMulT1Into(got, at, b)
			bitwiseEq(t, "MatMulT1Into"+tag, got, wantT1)
			p.MatMulT2Into(got, a, bt)
			bitwiseEq(t, "MatMulT2Into"+tag, got, wantT2)
			kernelsMatchGoLoops(t, tag, a, bt)
		}
	})
}

// naiveAddT1 is dst += aᵀ @ b one element at a time, each element adding
// its products over ascending rows of a and b to its current value.
func naiveAddT1(dst, a, b *Mat) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			s := dst.At(i, j)
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, i) * b.At(r, j)
			}
			dst.Set(i, j, s)
		}
	}
}

// TestLinearBackwardMatchesNaive holds Linear.Backward to the triple loops on
// both sides of transposeRows — dot products below it, dy @ (a transposed
// copy of W) from it on: dx to naiveMatMulT2 and the weight gradient to
// naiveAddT1, with ±Inf, NaN and −0 in W and ±0 in the input and in dy. Two
// passes accumulate onto one gradient, so the second adds to a non-zero G.
func TestLinearBackwardMatchesNaive(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		r := sim.NewRand(53)
		for _, rows := range []int{1, 2, transposeRows - 1, transposeRows, transposeRows + 1, 37} {
			for _, shape := range [][2]int{{32, 32}, {32, 128}, {128, 32}, {5, 7}, {1, 6}, {6, 1}} {
				in, out := shape[0], shape[1]
				l := NewLinear("l", in, out, r)
				l.SetRuntime(Runtime{Arena: NewArena()})
				poison(r, l.Weight.W)
				wantG := NewMat(in, out)
				for pass := 0; pass < 2; pass++ {
					x, dy := randMat(r, rows, in), randMat(r, rows, out)
					sparsify(r, x)
					sparsify(r, dy)
					l.Forward(x)
					tag := fmt.Sprintf("rows=%d %dx%d pass %d ", rows, in, out, pass)
					bitwiseEq(t, tag+"dx", l.Backward(dy), naiveMatMulT2(dy, l.Weight.W))
					naiveAddT1(wantG, x, dy)
					bitwiseEq(t, tag+"dW", l.Weight.G, wantG)
				}
			}
		}
	})
}

// TestWeightGradSkipWasNoOp shows that dropping the zero-skip the weight
// gradient used to take moved no bit: Linear.Backward, which adds every row's
// ±0·dy, against naiveAccumT1, which skips the rows whose activation is
// exactly zero, on ReLU-sparse inputs and finite gradients with ±0 in them,
// two passes onto a gradient cleared by ZeroGrad and two more onto one
// cleared by Adam.Step. Both start from +0, and a sum that starts at +0 is
// never −0, so adding ±0 leaves it as it is; only a non-finite dy, whose
// 0·dy is NaN, tells the two apart.
func TestWeightGradSkipWasNoOp(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		r := sim.NewRand(67)
		for _, rows := range []int{1, transposeRows - 1, transposeRows, 37} {
			for _, shape := range [][2]int{{32, 128}, {128, 32}, {5, 7}} {
				in, out := shape[0], shape[1]
				l := NewLinear("l", in, out, r)
				l.SetRuntime(Runtime{Arena: NewArena()})
				opt := NewAdam(1e-3, l.Params())
				wantG := NewMat(in, out)
				l.Weight.ZeroGrad()
				for pass := 0; pass < 4; pass++ {
					if pass == 2 {
						opt.Step(1)
						wantG.Zero()
					}
					x, dy := randMat(r, rows, in), randMat(r, rows, out)
					for i, v := range x.Data {
						x.Data[i] = max(v, 0)
					}
					sparsify(r, dy)
					l.Forward(x)
					l.Backward(dy)
					naiveAccumT1(wantG, x, dy)
					bitwiseEq(t, fmt.Sprintf("rows=%d %dx%d pass %d dW", rows, in, out, pass), l.Weight.G, wantG)
				}
			}
		}
	})
}

// naiveGemm is gemm's contract one output at a time.
func naiveGemm(o []float64, ldo int, a []float64, lda int, b []float64, ldb int, m, k, n int, bias []float64, relu, acc bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			if acc {
				s = o[i*ldo+j]
			}
			for p := 0; p < k; p++ {
				s += a[i*lda+p] * b[p*ldb+j]
			}
			if bias != nil {
				s += bias[j]
			}
			if relu && !(s > 0) {
				s = 0
			}
			o[i*ldo+j] = s
		}
	}
}

// specials sets about one element in every of x to ±0, ±Inf, NaN, a
// subnormal or a number whose products with the others are subnormal.
func specials(r *sim.Rand, x []float64, every int) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -2.5e-310, 1e-300, -3e-305}
	for i := range x {
		if r.Intn(every) == 0 {
			x[i] = vals[r.Intn(len(vals))]
		}
	}
}

// TestGemmMatchesNaive holds gemm to the triple loop on every kernel path,
// over the shapes that reach each of its tiles and edges — every row count
// up to two blocks of four and 37, every depth up to 9, 37 and 128, every
// width up to 17, 37, 64 and 300 — each with and without a bias, a ReLU and
// accumulation, on whole matrices and on column blocks of wider ones at odd
// offsets, half of them with ±0, ±Inf, NaN and subnormals among the
// operands, the bias and the output an accumulating gemm starts from.
// Outside the block the output must keep what was there.
func TestGemmMatchesNaive(t *testing.T) {
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37}
	ks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 128}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 37, 64, 300}
	kernelPaths(t, func(t *testing.T) {
		r := sim.NewRand(71)
		c := 0
		for _, k := range ks {
			for _, n := range ns {
				for v := 0; v < 16; v++ {
					withBias, relu, strided, acc := v&1 != 0, v&2 != 0, v&4 != 0, v&8 != 0
					// A view is a column block at an odd offset of a matrix
					// wider than the block, or a whole matrix; every other
					// one holds special values.
					view := func(rows, cols int) (data []float64, ld int) {
						ld, off := cols, 0
						if strided {
							ld, off = cols+1+r.Intn(5), 1+2*r.Intn(2)
						}
						data = randMat(r, 1, off+rows*ld).Data[off:]
						if c%2 == 0 {
							specials(r, data, 16)
						}
						return data, ld
					}
					b, ldb := view(k, n)
					var bias []float64
					if withBias {
						bias, _ = view(1, n)
					}
					for _, m := range ms {
						c++
						a, lda := view(m, k)
						got, ldo := view(m, n)
						if !acc {
							for i := range got {
								got[i] = -7.5
							}
						}
						want := append([]float64(nil), got...)
						naiveGemm(want, ldo, a, lda, b, ldb, m, k, n, bias, relu, acc)
						gemm(got, ldo, a, lda, b, ldb, m, k, n, bias, relu, acc)
						tag := fmt.Sprintf("case %d %dx%dx%d bias=%v relu=%v acc=%v strides %d,%d,%d", c, m, k, n, withBias, relu, acc, lda, ldb, ldo)
						bitwiseEq(t, tag, &Mat{Rows: 1, Cols: len(got), Data: got}, &Mat{Rows: 1, Cols: len(want), Data: want})
					}
				}
			}
		}
	})
}

// kernelsMatchGoLoops holds the row kernel matMulT2Row to its Go loop —
// with AVX the assembly, otherwise the same function twice — over every row
// of a against bt.
func kernelsMatchGoLoops(t *testing.T, tag string, a, bt *Mat) {
	t.Helper()
	got, want := misalign(NewMat(1, bt.Rows)), NewMat(1, bt.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		matMulT2Row(got.Data, arow, bt.Data)
		matMulT2RowGo(want.Data, arow, bt.Data)
		bitwiseEq(t, "matMulT2Row"+tag, got, want)
	}
}

// scalarAdamStep is Adam.Step as the scalar loop it was before the update
// became a row kernel, kept as the reference TestAdamMatchesScalar holds
// Step to.
func scalarAdamStep(a *Adam) {
	a.t++
	scale := 1.0
	if a.Clip > 0 {
		if norm := a.GradNorm(); norm > a.Clip {
			scale = a.Clip / norm
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for j, p := range a.params {
		w, g := p.W.Data, p.G.Data
		m, v := a.m[j], a.v[j]
		for i := range w {
			gi := g[i] * scale
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			w[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// TestAdamMatchesScalar runs Step and the scalar loop side by side over
// parameters of every length 0–9 (each remainder of the four-lane kernel,
// with and without whole blocks before it, misaligned starts included) and
// the train workload's 66 764, with clipping off, on but never reached, and
// on and active every step: steps 1–20, then 354–360, across the step (356)
// from which 1 − β1ᵗ rounds to 1 and the kernel skips its division by it.
// Weights and both moments must match bit for bit after every step, and
// Step must leave every gradient +0.
func TestAdamMatchesScalar(t *testing.T) {
	kernelPaths(t, testAdamMatchesScalar)
}

func testAdamMatchesScalar(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 66764}
	row := func(d []float64) *Mat { return &Mat{Rows: 1, Cols: len(d), Data: d} }
	for _, c := range []struct {
		name   string
		clip   float64
		active bool
	}{{"off", 0, false}, {"inactive", 1e9, false}, {"active", 1, true}} {
		build := func() (*Adam, []*Param) {
			r := sim.NewRand(41)
			var ps []*Param
			for _, n := range lengths {
				p := NewParam(fmt.Sprint("p", n), 1, n)
				if n%2 == 1 {
					p.W, p.G = misalign(p.W), misalign(p.G)
				}
				for i := range p.W.Data {
					p.W.Data[i] = r.NormFloat64()
				}
				ps = append(ps, p)
			}
			opt := NewAdam(3e-3, ps)
			opt.Clip = c.clip
			for i, n := range lengths {
				if n%2 == 1 {
					opt.m[i], opt.v[i] = misalign(row(opt.m[i])).Data, misalign(row(opt.v[i])).Data
				}
			}
			return opt, ps
		}
		got, gps := build()
		want, wps := build()
		r := sim.NewRand(43)
		for step := 0; step < 27; step++ {
			if step == 20 {
				got.t, want.t = 353, 353
			}
			for i, p := range gps {
				for j := range p.G.Data {
					g := r.NormFloat64()
					p.G.Data[j], wps[i].G.Data[j] = g, g
				}
			}
			if active := c.clip > 0 && got.GradNorm() > c.clip; active != c.active {
				t.Fatalf("%s step %d: clipping active = %v", c.name, step, active)
			}
			got.Step(1)
			scalarAdamStep(want)
			for i, p := range gps {
				tag := fmt.Sprintf("%s step %d %s ", c.name, got.t, p.Name)
				bitwiseEq(t, tag+"W", p.W, wps[i].W)
				bitwiseEq(t, tag+"m", row(got.m[i]), row(want.m[i]))
				bitwiseEq(t, tag+"v", row(got.v[i]), row(want.v[i]))
				allPosZero(t, tag+"G", p.G.Data)
			}
		}
		if 1-math.Pow(got.Beta1, float64(got.t)) != 1 {
			t.Fatalf("step %d never reached bc1 = 1", got.t)
		}
	}
	// adamRow against adamRowGo, the kernel on other architectures, each
	// with its own copy of the gradients, bc1 below 1 and at 1.
	r := sim.NewRand(47)
	for _, n := range lengths {
		for _, bc1 := range []float64{0.3, 1} {
			w, g, m, v := randMat(r, 1, n), randMat(r, 1, n), randMat(r, 1, n), randMat(r, 1, n)
			for i, x := range v.Data {
				v.Data[i] = x * x
			}
			aw, ag, am, av := misalign(w), misalign(g), misalign(m), misalign(v)
			adamRow(aw.Data, ag.Data, am.Data, av.Data, 0.5, 0.9, 1-0.9, 0.999, 1-0.999, bc1, 0.02, 1e-3, 1e-8)
			adamRowGo(w.Data, g.Data, m.Data, v.Data, 0.5, 0.9, 1-0.9, 0.999, 1-0.999, bc1, 0.02, 1e-3, 1e-8)
			tag := fmt.Sprintf("adamRow n=%d bc1=%v ", n, bc1)
			bitwiseEq(t, tag+"w", aw, w)
			bitwiseEq(t, tag+"m", am, m)
			bitwiseEq(t, tag+"v", av, v)
			allPosZero(t, tag+"adamRow g", ag.Data)
			allPosZero(t, tag+"adamRowGo g", g.Data)
		}
	}
}

// TestAdamStepIsMeanOfBatch: Step(n) on gradients summed over n samples is
// Step(1) on their mean, bit for bit — scaling by 1/n is exact for n = 1, 2
// and 4 — over seven steps with the clip off, firing on every step, and set
// between the mean's norm and the sum's, where only a clip that compares
// the sum's norm would fire. Weights and both moments must match, and both
// must leave every gradient +0.
func TestAdamStepIsMeanOfBatch(t *testing.T) {
	kernelPaths(t, testAdamStepIsMeanOfBatch)
}

func testAdamStepIsMeanOfBatch(t *testing.T) {
	lengths := []int{1, 5, 8, 37, 300}
	row := func(d []float64) *Mat { return &Mat{Rows: 1, Cols: len(d), Data: d} }
	build := func() (*Adam, []*Param) {
		r := sim.NewRand(53)
		var ps []*Param
		for _, n := range lengths {
			p := NewParam(fmt.Sprint("p", n), 1, n)
			for i := range p.W.Data {
				p.W.Data[i] = r.NormFloat64()
			}
			ps = append(ps, p)
		}
		return NewAdam(3e-3, ps), ps
	}
	for _, n := range []int{1, 2, 4} {
		for _, c := range []string{"off", "active", "sum only"} {
			if c == "sum only" && n == 1 {
				continue
			}
			got, gps := build()
			want, wps := build()
			r := sim.NewRand(59)
			for step := 1; step <= 7; step++ {
				for i, p := range gps {
					for j := range p.G.Data {
						g := r.NormFloat64()
						p.G.Data[j], wps[i].G.Data[j] = g, g/float64(n)
					}
				}
				mean := want.GradNorm()
				switch c {
				case "active":
					got.Clip, want.Clip = mean/2, mean/2
				case "sum only":
					got.Clip, want.Clip = 1.5*mean, 1.5*mean
				}
				got.Step(n)
				want.Step(1)
				for i, p := range gps {
					tag := fmt.Sprintf("n=%d clip %s step %d %s ", n, c, step, p.Name)
					bitwiseEq(t, tag+"W", p.W, wps[i].W)
					bitwiseEq(t, tag+"m", row(got.m[i]), row(want.m[i]))
					bitwiseEq(t, tag+"v", row(got.v[i]), row(want.v[i]))
					allPosZero(t, tag+"G", p.G.Data)
					allPosZero(t, tag+"mean G", wps[i].G.Data)
				}
			}
		}
	}
}

// TestAdamChunksMatchStep: Begin, given the norm as one SumSquares chain
// over the parameters, then Update over a chunking of every parameter, gives
// Step(n)'s weights and moments and its +0 gradients bit for bit, for n = 1,
// 3 and 4 and with the clip off, firing, and set but not reached. The
// chunkings are one element at a time, one row at a time, whole parameters
// and random ranges, each applied in random order. Fails if Update reads w,
// g, m or v at the wrong offset for a range that does not start at 0, or
// stops short of hi. (Begin's clip is Step's too; TestAdamStepIsMeanOfBatch
// holds it.)
func TestAdamChunksMatchStep(t *testing.T) {
	kernelPaths(t, testAdamChunksMatchStep)
}

func testAdamChunksMatchStep(t *testing.T) {
	shapes := [][2]int{{1, 1}, {3, 5}, {4, 7}, {37, 11}, {1, 300}}
	row := func(d []float64) *Mat { return &Mat{Rows: 1, Cols: len(d), Data: d} }
	build := func() (*Adam, []*Param) {
		r := sim.NewRand(61)
		var ps []*Param
		for i, sh := range shapes {
			p := NewParam(fmt.Sprint("p", i), sh[0], sh[1])
			if i%2 == 1 {
				p.W, p.G = misalign(p.W), misalign(p.G)
			}
			for j := range p.W.Data {
				p.W.Data[j] = r.NormFloat64()
			}
			ps = append(ps, p)
		}
		return NewAdam(3e-3, ps), ps
	}
	chunkings := map[string]func(r *sim.Rand, rows, cols int) [][2]int{
		"element": func(_ *sim.Rand, rows, cols int) (out [][2]int) {
			for i := 0; i < rows*cols; i++ {
				out = append(out, [2]int{i, i + 1})
			}
			return out
		},
		"row": func(_ *sim.Rand, rows, cols int) (out [][2]int) {
			for i := 0; i < rows; i++ {
				out = append(out, [2]int{i * cols, (i + 1) * cols})
			}
			return out
		},
		"whole": func(_ *sim.Rand, rows, cols int) [][2]int { return [][2]int{{0, rows * cols}} },
		"random": func(r *sim.Rand, rows, cols int) (out [][2]int) {
			for lo := 0; lo < rows*cols; {
				hi := min(lo+1+r.Intn(9), rows*cols)
				out = append(out, [2]int{lo, hi})
				lo = hi
			}
			return out
		},
	}
	for _, how := range []string{"element", "row", "whole", "random"} {
		for _, n := range []int{1, 3, 4} {
			for _, c := range []string{"off", "firing", "not reached"} {
				got, gps := build()
				want, wps := build()
				r := sim.NewRand(67)
				fired := false
				for step := 1; step <= 6; step++ {
					for i, p := range gps {
						for j := range p.G.Data {
							g := r.NormFloat64()
							p.G.Data[j], wps[i].G.Data[j] = g, g
						}
					}
					s := 0.0
					for _, p := range gps {
						s = SumSquares(s, p.G.Data)
					}
					norm := math.Sqrt(s)
					mean := norm / float64(n)
					switch c {
					case "firing":
						got.Clip, want.Clip = mean/2, mean/2
					case "not reached":
						got.Clip, want.Clip = 2*mean, 2*mean
					}
					fired = fired || got.Clip > 0 && norm*(1/float64(n)) > got.Clip
					got.Begin(n, norm)
					var work [][3]int
					for i, sh := range shapes {
						for _, rg := range chunkings[how](r, sh[0], sh[1]) {
							work = append(work, [3]int{i, rg[0], rg[1]})
						}
					}
					r.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
					for _, u := range work {
						got.Update(u[0], u[1], u[2])
					}
					want.Step(n)
					for i, p := range gps {
						tag := fmt.Sprintf("%s chunks, n=%d, clip %s, step %d %s ", how, n, c, step, p.Name)
						bitwiseEq(t, tag+"W", p.W, wps[i].W)
						bitwiseEq(t, tag+"m", row(got.m[i]), row(want.m[i]))
						bitwiseEq(t, tag+"v", row(got.v[i]), row(want.v[i]))
						allPosZero(t, tag+"G", p.G.Data)
					}
				}
				if fired != (c == "firing") {
					t.Fatalf("%s chunks, n=%d, clip %s: clipping fired = %v", how, n, c, fired)
				}
			}
		}
	}
}

// allPosZero fails the test unless every element of x is +0.
func allPosZero(t *testing.T, what string, x []float64) {
	t.Helper()
	for i, v := range x {
		if math.Float64bits(v) != 0 {
			t.Fatalf("%s: element %d = %v, want +0", what, i, v)
		}
	}
}

// naiveLinear is x @ W + b, one element at a time.
func naiveLinear(l *Linear, x *Mat) *Mat {
	y := naiveMatMul(x, l.Weight.W)
	for i := 0; i < y.Rows; i++ {
		for j := 0; j < y.Cols; j++ {
			y.Set(i, j, y.At(i, j)+l.Bias.W.Data[j])
		}
	}
	return y
}

// naiveAttention is softmax(Q Kᵀ/√d) V per head, heads side by side, then Wo
// — the textbook loops, one query row, one head and one element at a time.
func naiveAttention(a *MHSA, x *Mat) *Mat { return naiveAttentionForward(a, x).out }

// naiveAttn is what naiveAttentionForward computes over every row of x: the
// projections, each head's probabilities (n×n), the heads side by side and
// the block's output.
type naiveAttn struct {
	q, k, v, concat, out *Mat
	p                    []*Mat
}

func naiveAttentionForward(a *MHSA, x *Mat) naiveAttn {
	n := x.Rows
	q, k, v := naiveLinear(a.Wq, x), naiveLinear(a.Wk, x), naiveLinear(a.Wv, x)
	concat := NewMat(n, a.D)
	probs := make([]*Mat, a.H)
	scale := 1 / math.Sqrt(float64(a.Dh))
	for h := 0; h < a.H; h++ {
		off := h * a.Dh
		probs[h] = NewMat(n, n)
		for i := 0; i < n; i++ {
			p := probs[h].Row(i)
			maxv := math.Inf(-1)
			for j := 0; j < n; j++ {
				s := 0.0
				for d := 0; d < a.Dh; d++ {
					s += q.At(i, off+d) * k.At(j, off+d)
				}
				p[j] = s * scale
				maxv = math.Max(maxv, p[j])
			}
			sum := 0.0
			for j := range p {
				p[j] = math.Exp(p[j] - maxv)
				sum += p[j]
			}
			for j := range p {
				p[j] *= 1 / sum // the kernel multiplies by the reciprocal; p/sum rounds differently
			}
			for d := 0; d < a.Dh; d++ {
				s := 0.0
				for j := 0; j < n; j++ {
					s += p[j] * v.At(j, off+d)
				}
				concat.Set(i, off+d, s)
			}
		}
	}
	return naiveAttn{q: q, k: k, v: v, concat: concat, out: naiveLinear(a.Wo, concat), p: probs}
}

// tailRows returns a copy of rows [from, m.Rows) of m.
func tailRows(m *Mat, from int) *Mat {
	out := NewMat(m.Rows-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:])
	return out
}

// naiveLinearBackward is Linear.Backward on a layer with zeroed gradients
// as plain loops: dW = xᵀ dy and db = Σᵢ dy[i] over ascending rows, each
// sum from +0, and dx = dy Wᵀ.
func naiveLinearBackward(l *Linear, x, dy *Mat) (dx, dW, db *Mat) {
	db = NewMat(1, dy.Cols)
	for i := 0; i < dy.Rows; i++ {
		for j, v := range dy.Row(i) {
			db.Data[j] += v
		}
	}
	return naiveMatMulT2(dy, l.Weight.W), naiveMatMulT1(x, dy), db
}

// naiveAttentionBackward is MHSA.backwardFrom as plain loops, one head and
// one element at a time, for the m×D gradient dy of the rows [from, n) of
// the block's output on x. It returns dx and the gradients of Wq, Wk, Wv
// and Wo, weight then bias, in Params order.
func naiveAttentionBackward(a *MHSA, x *Mat, from int, dy *Mat) (dx *Mat, grads []*Mat) {
	f := naiveAttentionForward(a, x)
	n, m := x.Rows, dy.Rows
	q, concat := tailRows(f.q, from), tailRows(f.concat, from)
	dConcat, dWo, dbo := naiveLinearBackward(a.Wo, concat, dy)
	dq, dk, dv := NewMat(m, a.D), NewMat(n, a.D), NewMat(n, a.D)
	scale := 1 / math.Sqrt(float64(a.Dh))
	for h := 0; h < a.H; h++ {
		off := h * a.Dh
		p := tailRows(f.p[h], from)
		for r := 0; r < n; r++ {
			for d := 0; d < a.Dh; d++ {
				s := 0.0
				for i := 0; i < m; i++ {
					s += p.At(i, r) * dConcat.At(i, off+d)
				}
				dv.Set(r, off+d, s)
			}
		}
		ds := NewMat(m, n)
		for i := 0; i < m; i++ {
			dp := make([]float64, n)
			dot := 0.0
			for r := range dp {
				for d := 0; d < a.Dh; d++ {
					dp[r] += dConcat.At(i, off+d) * f.v.At(r, off+d)
				}
				dot += p.At(i, r) * dp[r]
			}
			for r := range dp {
				ds.Set(i, r, p.At(i, r)*(dp[r]-dot)*scale)
			}
		}
		for i := 0; i < m; i++ {
			for d := 0; d < a.Dh; d++ {
				s := 0.0
				for r := 0; r < n; r++ {
					s += ds.At(i, r) * f.k.At(r, off+d)
				}
				dq.Set(i, off+d, s)
			}
		}
		for r := 0; r < n; r++ {
			for d := 0; d < a.Dh; d++ {
				s := 0.0
				for i := 0; i < m; i++ {
					s += ds.At(i, r) * q.At(i, off+d)
				}
				dk.Set(r, off+d, s)
			}
		}
	}
	dxq, dWq, dbq := naiveLinearBackward(a.Wq, tailRows(x, from), dq)
	dxk, dWk, dbk := naiveLinearBackward(a.Wk, x, dk)
	dxv, dWv, dbv := naiveLinearBackward(a.Wv, x, dv)
	dx = NewMat(n, a.D)
	for r := 0; r < n; r++ {
		for c := 0; c < a.D; c++ {
			s := 0.0
			if r >= from {
				s = dxq.At(r-from, c)
			}
			dx.Set(r, c, s+dxk.At(r, c)+dxv.At(r, c))
		}
	}
	return dx, []*Mat{dWq, dbq, dWk, dbk, dWv, dbv, dWo, dbo}
}

// TestAttentionMatchesNaive holds the attention block, whole and pruned to
// its last query row, to naiveAttention on every kernel path, at head widths
// 1, 3, 8, 10 and 20 and sequences of 1 to 37 rows.
func TestAttentionMatchesNaive(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		r := sim.NewRand(29)
		for _, c := range []struct{ n, d, heads int }{
			{1, 32, 4}, {2, 32, 4}, {37, 32, 4}, {5, 24, 3}, {9, 8, 8}, {13, 20, 1}, {37, 100, 10},
			{6, 12, 4}, {37, 12, 4},
		} {
			a := NewMHSA("att", c.d, c.heads, r)
			a.SetRuntime(Runtime{Arena: NewArena()})
			for _, l := range []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} {
				copy(l.Bias.W.Data, randMat(r, 1, c.d).Data)
			}
			x := randMat(r, c.n, c.d)
			want := naiveAttention(a, x)
			tag := fmt.Sprintf("n=%d d=%d heads=%d ", c.n, c.d, c.heads)
			bitwiseEq(t, tag+"Forward", a.Forward(x), want)
			last := NewMat(1, c.d)
			copy(last.Row(0), want.Row(c.n-1))
			bitwiseEq(t, tag+"forwardFrom(n-1)", a.forwardFrom(x, c.n-1), last)
		}
	})
}

// TestAttentionBackwardMatchesNaive holds the attention block's backward
// pass, whole (from 0) and pruned to its last query row (from n−1), to
// naiveAttentionBackward on every kernel path: dx and the weight and bias
// gradients of all four projections, at head widths 1, 3, 8, 10 and 20 and
// sequences of 1 to 37 rows, with ±0 in x and dy.
func TestAttentionBackwardMatchesNaive(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		r := sim.NewRand(31)
		for _, c := range []struct{ n, d, heads int }{
			{1, 32, 4}, {2, 32, 4}, {37, 32, 4}, {5, 24, 3}, {9, 8, 8}, {13, 20, 1}, {37, 100, 10},
			{6, 12, 4}, {37, 12, 4}, {4, 40, 2},
		} {
			a := NewMHSA("att", c.d, c.heads, r)
			a.SetRuntime(Runtime{Arena: NewArena()})
			for _, l := range []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} {
				copy(l.Bias.W.Data, randMat(r, 1, c.d).Data)
			}
			x := randMat(r, c.n, c.d)
			sparsify(r, x)
			for _, from := range []int{0, c.n - 1} {
				dy := randMat(r, c.n-from, c.d)
				sparsify(r, dy)
				for _, p := range a.Params() {
					p.ZeroGrad()
				}
				a.rt.Arena.Release()
				a.forwardFrom(x, from)
				dx := a.backwardFrom(dy, from)
				wantDx, wantGrads := naiveAttentionBackward(a, x, from, dy)
				tag := fmt.Sprintf("n=%d d=%d heads=%d from=%d ", c.n, c.d, c.heads, from)
				bitwiseEq(t, tag+"dx", dx, wantDx)
				for i, p := range a.Params() {
					bitwiseEq(t, tag+p.Name+".G", p.G, wantGrads[i])
				}
			}
		}
	})
}

// fullForward and fullBackward are the unpruned encoder: every layer over
// every row, the last row copied out, and its gradient zero-padded back to
// n rows on the way in.
func fullForward(e *Encoder, ids []int) *Mat {
	x := e.Emb.Forward(ids)
	AddPositional(x)
	for _, l := range e.Layers {
		x = l.forwardFrom(x, 0)
	}
	rep := NewMat(1, e.D)
	copy(rep.Row(0), x.Row(x.Rows-1))
	return rep
}

func fullBackward(e *Encoder, dRep *Mat, n int) {
	dx := NewMat(n, e.D)
	copy(dx.Row(n-1), dRep.Row(0))
	for i := len(e.Layers) - 1; i >= 0; i-- {
		dx = e.Layers[i].backwardFrom(dx, 0)
	}
	e.Emb.Backward(dx)
}

func TestEncoderPrunedMatchesFull(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		const steps = 20
		for _, layers := range []int{1, 2, 3} {
			for _, seqLen := range []int{1, 2, 37} {
				build := func() (*Encoder, *Adam, Runtime) {
					rt := Runtime{Arena: NewArena()}
					enc := NewEncoder(EncoderConfig{Vocab: 50, Dim: 32, Heads: 4, Layers: layers}, sim.NewRand(23)).Share(rt)
					return enc, NewAdam(3e-3, enc.Params()), rt
				}
				pruned, popt, prt := build()
				full, fopt, frt := build()
				r := sim.NewRand(uint64(100*layers + seqLen))
				for step := 0; step < steps; step++ {
					ids := make([]int, seqLen)
					for i := range ids {
						ids[i] = r.Intn(50) // repeats scatter twice into one embedding row
					}
					dRep := randMat(r, 1, 32)
					tag := fmt.Sprintf("layers=%d n=%d step=%d ", layers, seqLen, step)

					prt.Arena.Release()
					popt.ZeroGrad()
					rep := pruned.Forward(ids)
					pruned.Backward(dRep)

					frt.Arena.Release()
					fopt.ZeroGrad()
					bitwiseEq(t, tag+"representation", rep, fullForward(full, ids))
					fullBackward(full, dRep, seqLen)

					fp := full.Params()
					for i, p := range pruned.Params() {
						bitwiseEq(t, tag+p.Name+".G", p.G, fp[i].G)
					}
					popt.Step(1)
					fopt.Step(1)
					for i, p := range pruned.Params() {
						bitwiseEq(t, tag+p.Name+".W", p.W, fp[i].W)
					}
				}
			}
		}
	})
}

func TestPositionalTableMatchesFormula(t *testing.T) {
	// A width nothing else in the package uses, so the lengths below are
	// what grows the table — concurrently, from both goroutines.
	const d = 14
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, rows := range []int{1, 3 + g, 40, 7, 200 + 50*g, 1000} {
				x := NewMat(rows, d)
				AddPositional(x)
				for pos := 0; pos < rows; pos++ {
					for j := 0; j < d; j++ {
						angle := float64(pos) / math.Pow(10000, float64(2*(j/2))/float64(d))
						want := math.Sin(angle)
						if j%2 == 1 {
							want = math.Cos(angle)
						}
						if got := x.At(pos, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("rows=%d: position %d column %d = %v, want %v", rows, pos, j, got, want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReLUGateMatchesBranch: FFN.Backward's bit mask keeps a gradient
// exactly where h > 0 and stores +0 elsewhere, as the branch it replaced
// (`if !(h > 0) { d = 0 }`) did, for h and d among ±0, ±Inf, NaNs of both
// signs, subnormals, the largest finite values and random values. Fails if
// the mask reads −0, a NaN or +Inf the wrong way.
func TestReLUGateMatchesBranch(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0x7fffffffffffffff), math.Float64frombits(0xffffffffffffffff)}
	r := sim.NewRand(3)
	for i := 0; i < 64; i++ {
		vals = append(vals, (r.Float64()-0.5)*math.Pow(2, float64(r.Intn(200)-100)))
	}
	for _, h := range vals {
		for _, d := range vals {
			want := d
			if !(h > 0) {
				want = 0
			}
			got := math.Float64frombits(math.Float64bits(d) & positive(h))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("h %v (%#x), d %v: got %v (%#x), want %v (%#x)", h, math.Float64bits(h), d, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
