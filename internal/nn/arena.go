package nn

import "math"

// Arena is a free-list of sized matrices that eliminates the per-step
// allocation churn of the training loop. model.Train runs Forward/Backward
// once per sample per epoch; without reuse every step allocates dozens of
// activation and scratch matrices that die immediately, and the garbage
// collector ends up on the profile next to the matmuls themselves.
//
// The lifetime model is a frame arena: Get hands out matrices during one
// training or inference step, and Release at a step boundary returns
// everything handed out since the previous Release to the free lists. After
// the first step, steady-state Get calls are pure recycles — zero heap
// allocation.
//
// An Arena is NOT safe for concurrent use: it belongs to the one encoder
// and decoders computing in it (a model.Trunk lends each pass its own such
// set, see Encoder.Share), and all Get/Release calls come from the goroutine
// running them. Other goroutines may read its matrices between two
// Releases — training's gradient merge reads every view's logged matrices
// (GradLog) — but never call Get or Release on it. A nil *Arena is valid
// and falls back to plain NewMat allocation.
type Arena struct {
	free map[int][]*Mat // element count → reusable matrices
	used []*Mat         // everything handed out since the last Release
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[int][]*Mat)}
}

// Get returns a rows×cols matrix, recycling a previously released buffer of
// the same element count when one exists. A recycled matrix holds whatever
// its last user left in it: the caller writes every element before reading
// it, and a destination that accumulates clears itself first. Only a nil
// arena, or a buffer allocated on first use, hands out zeros. Nil-safe.
// Steady-state calls are pure recycles (amortized append growth aside, which
// the noalloc analyzer deliberately permits).
//
//pythia:noalloc
func (a *Arena) Get(rows, cols int) *Mat {
	if a == nil {
		return NewMat(rows, cols)
	}
	n := rows * cols
	var m *Mat
	if s := a.free[n]; len(s) > 0 {
		m = s[len(s)-1]
		s[len(s)-1] = nil
		a.free[n] = s[:len(s)-1]
		m.Rows, m.Cols = rows, cols
	} else {
		m = NewMat(rows, cols)
	}
	if poisonArena {
		for i := range m.Data {
			m.Data[i] = math.NaN()
		}
	}
	a.used = append(a.used, m)
	return m
}

// poisonArena makes Get fill every matrix with NaN, so that an element read
// before it is written turns up in a golden. The package's tests set it.
var poisonArena bool

// GetVec returns a 1×n matrix; see Get for its contents.
//
//pythia:noalloc
func (a *Arena) GetVec(n int) *Mat { return a.Get(1, n) }

// Release returns every matrix handed out since the previous Release to
// the free lists. Call it at step boundaries only: matrices obtained from
// Get must not be read or written after the Release that recycles them.
// Nil-safe.
//
//pythia:noalloc
func (a *Arena) Release() {
	if a == nil {
		return
	}
	for i, m := range a.used {
		a.free[len(m.Data)] = append(a.free[len(m.Data)], m)
		a.used[i] = nil
	}
	a.used = a.used[:0]
}

// Live reports how many matrices are currently handed out (tests use it to
// check step hygiene).
func (a *Arena) Live() int {
	if a == nil {
		return 0
	}
	return len(a.used)
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
