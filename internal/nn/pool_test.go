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

// kernelShapes covers both sharding regimes: tall outputs (row-sharded)
// and the decoder's flat 1×D @ D×wide shape (column-sharded), plus odd
// sizes that don't divide evenly by any thread count. Shapes are large
// enough to clear parallelMinWork so the pool really fans out.
var kernelShapes = []struct{ m, k, n int }{
	{37, 29, 41},
	{64, 64, 256},
	{1, 64, 1024},
	{3, 128, 65},
	{128, 16, 16},
}

func TestParallelKernelsMatchSerialBitwise(t *testing.T) {
	for _, threads := range []int{2, 3, 7, 16} {
		p := NewPool(threads)
		r := sim.NewRand(uint64(threads))
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
}

func TestAccumT1MatchesSerialAccumulation(t *testing.T) {
	p := NewPool(5)
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
	p := NewPool(4)
	r := sim.NewRand(3)
	a := randMat(r, 130, 70)
	b := randMat(r, 130, 70)

	sum := NewMat(130, 70)
	p.AddInto(sum, a, b)
	bitwiseEq(t, "AddInto", sum, Add(a, b))

	acc := a.Clone()
	p.AddInPlace(acc, b)
	bitwiseEq(t, "AddInPlace", acc, sum)

	sm := a.Clone()
	p.SoftmaxRows(sm)
	want := a.Clone()
	want.SoftmaxRows()
	bitwiseEq(t, "SoftmaxRows", sm, want)
}

func TestPoolRunCoversAllTasksOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 5, 9} {
		p := NewPool(threads)
		counts := make([]int32, 23)
		p.Run(len(counts), func(i int) { counts[i]++ })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("threads=%d: task %d ran %d times", threads, i, c)
			}
		}
	}
}

func TestPoolNilAndThreadClamping(t *testing.T) {
	var p *Pool
	if p.Threads() != 1 {
		t.Fatalf("nil pool threads = %d", p.Threads())
	}
	ran := false
	p.shard(4, 1<<20, func(lo, hi int) {
		if lo != 0 || hi != 4 {
			t.Fatalf("nil pool shard [%d,%d)", lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("nil pool did not run shard")
	}
	if NewPool(0).Threads() != DefaultThreads() {
		t.Fatal("NewPool(0) did not take the process default")
	}
}

// TestEncoderParallelBitwiseDeterminism runs the full encoder+decoder
// forward/backward — attention heads fanned out, layernorm row-sharded,
// arena-allocated scratch — under several thread counts and demands
// bit-identical gradients and outputs versus the unbound serial modules.
func TestEncoderParallelBitwiseDeterminism(t *testing.T) {
	build := func() (*Encoder, *Decoder) {
		r := sim.NewRand(11)
		enc := NewEncoder(EncoderConfig{Vocab: 30, Dim: 24, Heads: 4, Layers: 2, FFHidden: 48}, r)
		dec := NewDecoder("d", 24, 32, 40, r)
		return enc, dec
	}
	ids := []int{3, 17, 4, 9, 22, 1, 5, 12}
	run := func(enc *Encoder, dec *Decoder) (*Mat, map[string][]float64) {
		rep := enc.Forward(ids)
		logits := dec.Forward(rep)
		bce := BCEWithLogits{PosWeight: 3, Sum: true}
		targets := make([]float64, 40)
		for i := 0; i < 40; i += 3 {
			targets[i] = 1
		}
		_, dLogits := bce.Loss(logits, targets)
		enc.Backward(dec.Backward(dLogits))
		grads := map[string][]float64{}
		for _, p := range append(enc.Params(), dec.Params()...) {
			g := make([]float64, len(p.G.Data))
			copy(g, p.G.Data)
			grads[p.Name] = g
		}
		return logits.Clone(), grads
	}

	refEnc, refDec := build()
	wantLogits, wantGrads := run(refEnc, refDec)

	for _, threads := range []int{1, 2, 4, 8} {
		enc, dec := build()
		rt := Runtime{Pool: NewPool(threads), Arena: NewArena()}
		enc.SetRuntime(rt)
		dec.SetRuntime(rt)
		gotLogits, gotGrads := run(enc, dec)
		bitwiseEq(t, "logits", gotLogits, wantLogits)
		for name, want := range wantGrads {
			got := gotGrads[name]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("threads=%d: grad %s[%d] = %v, want %v", threads, name, i, got[i], want[i])
				}
			}
		}
	}
}

func TestArenaRecyclesBuffers(t *testing.T) {
	a := NewArena()
	m1 := a.Get(4, 8)
	m1.Data[0] = 42
	if a.Live() != 1 {
		t.Fatalf("Live = %d", a.Live())
	}
	a.Release()
	if a.Live() != 0 {
		t.Fatalf("Live after Release = %d", a.Live())
	}
	m2 := a.Get(8, 4) // same element count, different shape: must recycle and zero
	if &m1.Data[0] != &m2.Data[0] {
		t.Fatal("arena did not recycle the buffer")
	}
	if m2.Rows != 8 || m2.Cols != 4 {
		t.Fatalf("recycled shape %dx%d", m2.Rows, m2.Cols)
	}
	if m2.Data[0] != 0 {
		t.Fatal("recycled buffer not zeroed")
	}
	m3 := a.Get(4, 8)
	if &m3.Data[0] == &m2.Data[0] {
		t.Fatal("arena handed out a live buffer")
	}

	// Nil arena degrades to plain allocation.
	var nilA *Arena
	if m := nilA.Get(2, 2); m == nil || len(m.Data) != 4 {
		t.Fatal("nil arena Get failed")
	}
	nilA.Release()
}

// TestArenaSteadyStateAllocs verifies the zero-alloc claim: after the
// first training step, a full encoder+decoder forward/backward allocates
// (essentially) nothing from the heap.
func TestArenaSteadyStateAllocs(t *testing.T) {
	r := sim.NewRand(2)
	enc := NewEncoder(EncoderConfig{Vocab: 30, Dim: 16, Heads: 4, Layers: 2}, r)
	dec := NewDecoder("d", 16, 32, 64, r)
	rt := Runtime{Pool: NewPool(1), Arena: NewArena()}
	enc.SetRuntime(rt)
	dec.SetRuntime(rt)
	bce := BCEWithLogits{Sum: true, Scratch: rt.Arena}
	targets := make([]float64, 64)
	ids := []int{1, 2, 3, 4, 5, 6}
	step := func() {
		rt.Arena.Release()
		rep := enc.Forward(ids)
		logits := dec.Forward(rep)
		_, dLogits := bce.Loss(logits, targets)
		enc.Backward(dec.Backward(dLogits))
	}
	step() // warm the arena
	step()
	allocs := testing.AllocsPerRun(10, step)
	// Every matrix comes from the arena, scratch pointer slices are
	// retained on the modules, and at Threads=1 the kernels never build a
	// shard closure — so a warm step is allocation-free. The seed code
	// allocated hundreds of matrices per step.
	if allocs != 0 {
		t.Fatalf("steady-state step allocates %v objects; arena is not recycling", allocs)
	}
}
