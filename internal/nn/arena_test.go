package nn

import (
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

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
	rt := Runtime{Arena: NewArena()}
	enc := NewEncoder(EncoderConfig{Vocab: 30, Dim: 16, Heads: 4, Layers: 2}, r).Share(rt)
	dec := NewDecoder("d", 16, 32, 64, r).Share(rt)
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
	// Every matrix comes from the arena and scratch pointer slices are
	// retained on the modules, so a warm step is allocation-free. The seed
	// code allocated hundreds of matrices per step.
	if allocs != 0 {
		t.Fatalf("steady-state step allocates %v objects; arena is not recycling", allocs)
	}
}
