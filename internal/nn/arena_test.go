package nn

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/pythia-db/pythia/internal/sim"
)

// TestArenaRecyclesBuffers checks the arena's contract. After Release the
// same memory and the same headers come back in Get order, whatever the
// shapes; every matrix starts on a cache line; Get poisons what it hands out
// while the package's tests run (fresh and recycled memory alike), and
// otherwise leaves what the last user wrote. A fresh arena allocates each
// chunk once, a matrix larger than a chunk getting one of its own, and
// copies nothing: its second step allocates nothing and hands out the first
// step's memory.
func TestArenaRecyclesBuffers(t *testing.T) {
	if !poisonArena {
		t.Fatal("the arena is not poisoned; TestMain sets poisonArena")
	}
	allNaN := func(what string, m *Mat) {
		t.Helper()
		for i, v := range m.Data {
			if !math.IsNaN(v) {
				t.Fatalf("%s: element %d = %v, want the NaN poison", what, i, v)
			}
		}
	}
	// 30 score matrices fill two chunks and part of a third, a 200×100
	// matrix takes a chunk of its own, and five more scores a fifth chunk.
	shapes := make([][2]int, 0, 36)
	for range 30 {
		shapes = append(shapes, [2]int{37, 37})
	}
	shapes = append(shapes, [2]int{200, 100})
	for range 5 {
		shapes = append(shapes, [2]int{37, 37})
	}
	chunkBytes := uint64(4*arenaChunk+200*100) * 8
	a := NewArena()
	var first []*Mat
	var firstData []*float64
	step := func() {
		first, firstData = first[:0], firstData[:0]
		a.Release()
		for _, s := range shapes {
			m := a.Get(s[0], s[1])
			first, firstData = append(first, m), append(firstData, &m.Data[0])
		}
	}
	first, firstData = make([]*Mat, 0, len(shapes)), make([]*float64, 0, len(shapes))
	mallocs, bytes := allocsOf(step)
	if len(a.chunks) != 5 {
		t.Fatalf("%d chunks after the first step, want 5", len(a.chunks))
	}
	if bytes < chunkBytes || bytes > chunkBytes+16<<10 {
		t.Fatalf("a fresh arena's first step allocated %d bytes in %d objects, want its 5 chunks' %d and headers", bytes, mallocs, chunkBytes)
	}
	for i, m := range first {
		allNaN("fresh memory", m)
		if p := uintptr(unsafe.Pointer(firstData[i])); p%64 != 0 {
			t.Fatalf("matrix %d starts at %#x, not on a cache line", i, p)
		}
	}
	if a.Live() != len(shapes) {
		t.Fatalf("Live = %d, want %d", a.Live(), len(shapes))
	}
	mats, data := slices.Clone(first), slices.Clone(firstData)
	if mallocs, bytes := allocsOf(step); mallocs != 0 {
		t.Fatalf("a fresh arena's second step allocated %d bytes in %d objects", bytes, mallocs)
	}
	if !slices.Equal(first, mats) || !slices.Equal(firstData, data) {
		t.Fatal("the second step's matrices are not the first step's memory and headers in Get order")
	}

	// Other shapes with the same element counts, and fewer matrices, take
	// the same memory in the same order.
	a.Release()
	if a.Live() != 0 {
		t.Fatalf("Live after Release = %d", a.Live())
	}
	m0, m1 := a.Get(1, 1369), a.Get(37, 37)
	if m0 != mats[0] || &m0.Data[0] != data[0] || m1 != mats[1] || &m1.Data[0] != data[1] {
		t.Fatal("after Release the arena did not hand out its first memory and headers again")
	}
	if m0.Rows != 1 || m0.Cols != 1369 || len(m0.Data) != 1369 || cap(m0.Data) != 1369 {
		t.Fatalf("recycled header %dx%d, len %d, cap %d", m0.Rows, m0.Cols, len(m0.Data), cap(m0.Data))
	}
	allNaN("recycled memory", m0)

	poisonArena = false
	defer func() { poisonArena = true }()
	m1.Data[5] = 7
	a.Release()
	a.Get(37, 37)
	if m := a.Get(37, 37); m.Data[5] != 7 {
		t.Fatalf("recycled memory holds %v, want the 7 its last user wrote", m.Data[5])
	}

	// A next chunk too small for the matrix is replaced by one that holds it.
	a.Release()
	a.Get(37, 37)
	if big := a.Get(200, 100); len(a.chunks) != 5 || len(a.chunks[1]) != 200*100 || &big.Data[0] != &a.chunks[1][0] {
		t.Fatal("a 200×100 matrix after one score matrix did not take a chunk of its own in second place")
	}

	// Nil arena degrades to plain allocation, zeroed.
	var nilA *Arena
	if m := nilA.Get(2, 2); m == nil || len(m.Data) != 4 || m.Data[3] != 0 {
		t.Fatal("nil arena Get failed")
	}
	nilA.Release()
}

// allocsOf runs f once on one thread and returns the heap objects and bytes
// it allocated.
func allocsOf(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestArenaSteadyStateAllocs verifies the zero-alloc claim: after the
// first training step, a full encoder+decoder forward/backward allocates
// nothing from the heap, the second step included.
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
	if mallocs, bytes := allocsOf(step); mallocs != 0 {
		t.Fatalf("the second step allocates %d bytes in %d objects", bytes, mallocs)
	}
	allocs := testing.AllocsPerRun(10, step)
	// Every matrix comes from the arena and scratch pointer slices are
	// retained on the modules, so a warm step is allocation-free. The seed
	// code allocated hundreds of matrices per step.
	if allocs != 0 {
		t.Fatalf("steady-state step allocates %v objects; arena is not recycling", allocs)
	}
}
