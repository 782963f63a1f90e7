package nn

import (
	"fmt"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// Kernel microbenchmarks. BenchmarkMatMul runs the forward products at the
// shapes a served model runs them; the others keep a wide 64×64 @ 64×4096
// product. Run with:
//
//	go test ./internal/nn -bench 'MatMul|Attention|TrainStep' -benchmem

const (
	benchM = 64
	benchK = 64
	benchN = 4096
)

// unpoisoned turns off, for one benchmark, the NaN fill TestMain gives the
// arena, so that Get is timed as it runs outside the tests.
func unpoisoned(b *testing.B) {
	poisonArena = false
	b.Cleanup(func() { poisonArena = true })
}

func benchMats(r *sim.Rand) (a, b, dst *Mat) {
	return randMat(r, benchM, benchK), randMat(r, benchK, benchN), NewMat(benchM, benchN)
}

// BenchmarkMatMul times a @ b at the shapes of one prediction on a
// 37-token plan: the projections, the FFN's two products and one head's
// P·V over all rows, and on one row (the top layer's query row, or a
// decoder) the decoder's hidden layer and its widest output layer.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range [][3]int{{37, 32, 32}, {37, 32, 128}, {37, 128, 32}, {37, 37, 8}, {1, 32, 64}, {1, 64, 300}} {
		m, k, n := s[0], s[1], s[2]
		r := sim.NewRand(1)
		x, w, dst := randMat(r, m, k), randMat(r, k, n), NewMat(m, n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matMul(dst, x, w)
			}
		})
	}
}

func BenchmarkMatMulT1(b *testing.B) {
	r := sim.NewRand(2)
	x := randMat(r, benchK, benchM) // xᵀ @ dy: contraction over rows
	dy := randMat(r, benchK, benchN)
	dst := NewMat(benchM, benchN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		matMulT1(dst, x, dy)
	}
}

func BenchmarkMatMulT2(b *testing.B) {
	r := sim.NewRand(3)
	dy := randMat(r, benchM, benchN) // dy @ wᵀ: the input-gradient shape
	w := randMat(r, benchK, benchN)
	dst := NewMat(benchM, benchK)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		matMulT2(dst, dy, w)
	}
}

// BenchmarkAdamStep measures one clipped Adam update of the train workload's
// 66 764 parameters (model.params), held in one Param: the model splits them
// over a few dozen, which adds only a call per Param.
func BenchmarkAdamStep(b *testing.B) {
	r := sim.NewRand(8)
	p := NewParam("w", 1, 66764)
	p.G = randMat(r, 1, 66764)
	opt := NewAdam(1e-3, []*Param{p})
	opt.Clip = 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt.Step(1)
	}
}

// BenchmarkSoftmaxRows times one head's softmax over the 37×37 scores of a
// 37-token plan at attention's scale for Dh = 8. It runs in place, on the
// previous iteration's probabilities after the first, which costs what fresh
// scores do.
func BenchmarkSoftmaxRows(b *testing.B) {
	m := randMat(sim.NewRand(6), 37, 37)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.SoftmaxRows(0.35355339059327373)
	}
}

// BenchmarkAttention measures a full MHSA forward+backward at an
// encoder-realistic shape (sequence 64, the paper's Dim-100-ish width,
// 8 heads).
func BenchmarkAttention(b *testing.B) {
	unpoisoned(b)
	r := sim.NewRand(4)
	a := NewMHSA("bench", 96, 8, r)
	rt := Runtime{Arena: NewArena()}
	a.SetRuntime(rt)
	x := randMat(r, 64, 96)
	dy := randMat(r, 64, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Arena.Release()
		a.Forward(x)
		a.Backward(dy)
	}
}

// matMulRowsSkip is the seed kernel's inner loop with the av == 0 skip
// branch, retained here only so BenchmarkMatMulSkip can document why the
// dense kernels dropped it (see the header comment in kernels.go).
func matMulRowsSkip(dst, a, b *Mat) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// BenchmarkMatMulSkip compares the skip-branch kernel against the straight
// kernel on fully dense activations — the post-embedding reality of every
// matmul call site in the model. The branch costs a compare per k on inputs
// that are never zero, which is why MatMul/MatMulT1 no longer carry it.
func BenchmarkMatMulSkip(b *testing.B) {
	r := sim.NewRand(5)
	x, w, dst := benchMats(r) // dense: randMat never produces exact zeros
	b.Run("skip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matMulRowsSkip(dst, x, w)
		}
	})
	b.Run("noskip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matMul(dst, x, w)
		}
	})
}

// BenchmarkTrainStep measures one full encoder+decoder forward/backward at
// a model-realistic size, with and without the scratch arena. The arena
// variant should report ~0 allocs/op against hundreds for the heap variant —
// the zero-alloc claim of the training hot path.
func BenchmarkTrainStep(b *testing.B) {
	unpoisoned(b)
	run := func(b *testing.B, rt Runtime) {
		r := sim.NewRand(7)
		enc := NewEncoder(EncoderConfig{Vocab: 64, Dim: 32, Heads: 4, Layers: 2}, r).Share(rt)
		dec := NewDecoder("d", 32, 64, 2048, r).Share(rt)
		bce := BCEWithLogits{Sum: true, Scratch: rt.Arena}
		targets := make([]float64, 2048)
		for i := 0; i < len(targets); i += 7 {
			targets[i] = 1
		}
		ids := []int{3, 17, 4, 9, 22, 1, 5, 12, 40, 2, 33, 8}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Arena.Release()
			rep := enc.Forward(ids)
			logits := dec.Forward(rep)
			_, dLogits := bce.Loss(logits, targets)
			enc.Backward(dec.Backward(dLogits))
		}
	}
	b.Run("heap", func(b *testing.B) { run(b, Runtime{}) })
	b.Run("arena", func(b *testing.B) { run(b, Runtime{Arena: NewArena()}) })
}
