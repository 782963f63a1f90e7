package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// trainedBits trains a small encoder and two decoder heads jointly, as
// model.Trunk does, on sequences of 1 to 37 tokens (both sides of
// transposeRows), and returns the FNV-64a hash of every weight's bit pattern
// followed by every head's scores on those sequences.
func trainedBits() uint64 {
	r := sim.NewRand(61)
	rt := Runtime{Arena: NewArena()}
	enc := NewEncoder(EncoderConfig{Vocab: 40, Dim: 32, Heads: 4, Layers: 2}, r).Share(rt)
	decs := []*FFN{NewDecoder("a", 32, 24, 37, r).Share(rt), NewDecoder("b", 32, 16, 9, r).Share(rt)}
	params := enc.Params()
	for _, d := range decs {
		params = append(params, d.Params()...)
	}
	opt := NewAdam(3e-3, params)
	opt.Clip = 5
	bce := BCEWithLogits{PosWeight: 5, Sum: true, Scratch: rt.Arena}

	var seqs [][]int
	var targets [][][]float64
	for _, n := range []int{1, 2, 3, 4, 5, 9, 37} {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = r.Intn(40)
		}
		seqs = append(seqs, ids)
		var perHead [][]float64
		for _, d := range decs {
			y := make([]float64, d.L2.Out)
			for j := range y {
				if r.Intn(4) == 0 {
					y[j] = 1
				}
			}
			perHead = append(perHead, y)
		}
		targets = append(targets, perHead)
	}
	for epoch := 0; epoch < 6; epoch++ {
		for i, ids := range seqs {
			rt.Arena.Release()
			opt.ZeroGrad()
			rep := enc.Forward(ids)
			var dRep *Mat
			for h, d := range decs {
				_, dLogits := bce.Loss(d.Forward(rep), targets[i][h])
				if g := d.Backward(dLogits); dRep == nil {
					dRep = g
				} else {
					AddInPlace(dRep, g)
				}
			}
			enc.Backward(dRep)
			opt.Step(1)
		}
	}

	h := fnv.New64a()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, p := range params {
		for _, w := range p.W.Data {
			put(w)
		}
	}
	for _, ids := range seqs {
		rt.Arena.Release()
		rep := enc.Forward(ids)
		for _, d := range decs {
			for _, x := range d.Forward(rep).Data {
				put(Sigmoid(x))
			}
		}
	}
	return h.Sum64()
}

// TestTrainedBitsGolden pins trainedBits on every kernel path this CPU has.
// The constant was computed with the SSE2 kernels the AVX ones replaced, so
// it also holds every later kernel to their bits; and as the arena is
// poisoned (TestMain), a scratch element read before it is written moves it. Bits are pinned per
// architecture (arm64's compiler fuses the Go loops into FMADD), so other
// GOARCHes skip it.
func TestTrainedBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned hash is amd64's; other architectures round differently")
	}
	const want = 0x727d7b4b8b62bebd
	kernelPaths(t, func(t *testing.T) {
		if got := trainedBits(); got != want {
			t.Fatalf("trained bits hash to %#016x, want %#016x", got, want)
		}
	})
}
