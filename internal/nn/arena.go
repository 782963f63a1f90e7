package nn

import "math"

// Arena hands out the step-scoped matrices of the training loop and of
// inference without heap allocation. model.Train runs Forward/Backward once
// per sample per epoch; without reuse every step allocates dozens of
// activation and scratch matrices that die immediately, and the garbage
// collector ends up on the profile next to the matmuls themselves.
//
// The lifetime model is a frame arena: Get carves each matrix from the
// current chunk of backing memory at a cursor, and Release at a step
// boundary rewinds the cursor, so the next step's Gets receive the same
// memory in the same order, and the same Mat headers by index. Chunks are
// arenaChunk floats, or one matrix's worth when it is larger; every offset
// is rounded up to a cache line. A chunk is allocated once and never copied
// or moved: the matrices of earlier steps are simply overwritten. Once the
// arena has met a step's shapes, Get and Release allocate nothing.
//
// An Arena is NOT safe for concurrent use: it belongs to the one encoder
// and decoders computing in it (a model.Trunk lends each pass its own such
// set, see Encoder.Share), and all Get/Release calls come from the goroutine
// running them. Other goroutines may read its matrices between two
// Releases — training's gradient merge reads every view's logged matrices
// (GradLog) — but never call Get or Release on it. A nil *Arena is valid
// and falls back to plain NewMat allocation.
type Arena struct {
	chunks [][]float64 // backing memory, in the order the cursor walks it
	mats   []*Mat      // headers; the i-th Get since Release returns mats[i]
	cur    []float64   // the chunk being carved, chunks[next-1], or nil
	off    int         // cur[off:] is free
	next   int         // index of the chunk after cur
	live   int         // Gets since the last Release
}

const (
	// arenaChunk is the size of a chunk in floats (128 KiB): a served
	// prediction's whole step fits in a few.
	arenaChunk = 16 << 10
	// lineFloats is a cache line in floats; every matrix starts on one.
	lineFloats = 8
)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a rows×cols matrix from the next free memory of the arena. It
// holds whatever its last user left in it: the caller writes every element
// before reading it, and a destination that accumulates clears itself
// first. Only a nil arena, or memory the arena allocated for this Get,
// hands out zeros. Nil-safe. Only grow allocates.
//
//pythia:noalloc
func (a *Arena) Get(rows, cols int) *Mat {
	if a == nil {
		return NewMat(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic("nn: negative matrix dimension")
	}
	n := rows * cols
	if a.live == len(a.mats) || n > len(a.cur)-a.off {
		a.grow(n)
	}
	m := a.mats[a.live]
	a.live++
	m.Rows, m.Cols, m.Data = rows, cols, a.cur[a.off:a.off+n:a.off+n]
	a.off += (n + lineFloats - 1) &^ (lineFloats - 1)
	if poisonArena {
		for i := range m.Data {
			m.Data[i] = math.NaN()
		}
	}
	return m
}

// grow gives Get a header for its next matrix, and when the current chunk
// cannot hold n more floats moves the cursor to the start of the next one,
// allocating it first when there is none or it is smaller than n (an
// outgrown chunk is dropped, never copied). Taken when the arena first
// meets a step's shapes, and once per step to leave the rewound cursor.
func (a *Arena) grow(n int) {
	if a.live == len(a.mats) {
		a.mats = append(a.mats, new(Mat))
	}
	if n <= len(a.cur)-a.off {
		return
	}
	if a.next == len(a.chunks) {
		a.chunks = append(a.chunks, nil)
	}
	if len(a.chunks[a.next]) < n {
		a.chunks[a.next] = make([]float64, max(arenaChunk, (n+lineFloats-1)&^(lineFloats-1)))
	}
	a.cur, a.off = a.chunks[a.next], 0
	a.next++
}

// poisonArena makes Get fill every matrix with NaN, so that an element read
// before it is written turns up in a golden. The package's tests set it.
var poisonArena bool

// GetVec returns a 1×n matrix; see Get for its contents.
//
//pythia:noalloc
func (a *Arena) GetVec(n int) *Mat { return a.Get(1, n) }

// Release rewinds the arena: the next Get returns the memory and the header
// of the first Get since the previous Release. Call it at step boundaries
// only: matrices obtained from Get must not be read or written after the
// Release that recycles them. Nil-safe.
//
//pythia:noalloc
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.cur, a.off, a.next, a.live = nil, 0, 0, 0
}

// Live reports how many matrices are currently handed out (tests use it to
// check step hygiene).
func (a *Arena) Live() int {
	if a == nil {
		return 0
	}
	return a.live
}

// Runtime is what a module computes with: the scratch arena for step-scoped
// matrices, Pool, the stateless receiver of the kernels (see Pool for why
// it is still a field), and Log, which when set defers the parameter
// gradient sums of Backward (GradLog). The zero value is valid and means
// garbage-collected allocation and gradients added at once, so modules
// work unbound and tests can construct layers directly.
type Runtime struct {
	Pool  *Pool
	Arena *Arena
	Log   *GradLog
}

// get allocates a rows×cols matrix from the arena, contents unspecified (see
// Arena.Get), or a zeroed one from the heap when no arena is bound.
//
//pythia:noalloc
func (rt Runtime) get(rows, cols int) *Mat { return rt.Arena.Get(rows, cols) }

// add returns a + b, allocated from the runtime.
//
//pythia:noalloc
func (rt Runtime) add(a, b *Mat) *Mat {
	dst := rt.get(a.Rows, a.Cols)
	rt.Pool.AddInto(dst, a, b)
	return dst
}

// rowsFrom returns rows [from, x.Rows) of x — x itself when from is 0,
// otherwise a copy, so the result can be cached for a backward pass.
//
//pythia:noalloc
func (rt Runtime) rowsFrom(x *Mat, from int) *Mat {
	if from == 0 {
		return x
	}
	dst := rt.get(x.Rows-from, x.Cols)
	copy(dst.Data, x.Data[from*x.Cols:])
	return dst
}

// padRows is rowsFrom's inverse: an n-row matrix holding x in rows
// [from, n) and +0 above them — x itself when from is 0.
//
//pythia:noalloc
func (rt Runtime) padRows(x *Mat, from, n int) *Mat {
	if from == 0 {
		return x
	}
	dst := rt.get(n, x.Cols)
	top := dst.Data[:from*x.Cols]
	for i := range top {
		top[i] = 0
	}
	copy(dst.Data[from*x.Cols:], x.Data)
	return dst
}
