package nn

import (
	"fmt"
	"math"
	"runtime"
)

// Destination-passing compute kernels. Each kernel writes into a
// caller-supplied matrix (usually from an Arena) instead of allocating, and
// runs on the calling goroutine. Parallelism is across a trunk's views —
// concurrent predictions, and in training the samples of a group, each on a
// view of its own — and across row ranges of their logged gradient sums,
// each range adding the samples' entries in sample order (GradLog) — never
// inside a kernel, so no sum is reordered.
//
// Determinism: every output element is accumulated in ascending order over
// the contracted index, here and in the allocating forms in mat.go, which
// run the same loops.
//
// Register blocking: every a @ b product — dense layers, attention's
// products both ways, weight gradients, many-row input gradients — is one
// kernel, gemm, that holds a tile of outputs in registers across the whole
// contracted loop and reads each operand in place with its own row stride,
// so a head's column block of Q, K, V, concat or their gradients is an
// operand with no copy; a dense layer's bias and ReLU are its epilogue,
// applied before the tile is stored, and in accumulate mode a tile starts
// from the outputs' current values instead of +0, which is how a weight
// gradient adds xᵀ dy into itself. A transposed operand is copied out first
// (transposeInto): Kᵀ and Vᵀ once per attention layer, a head's
// probabilities and score gradients per head, x for the weight gradient and
// W for many-row input gradients. a @ bᵀ, whose inner loop is a dot product,
// also runs directly (matMulT2Row), several outputs at a time (four in Go,
// eight in the assembly), each with its own running sum, for the few-row
// input gradients. None reorders a sum: each element is ((s + p₀) + p₁) + p₂
// … over ascending contracted index from its start s, each product rounded
// before it is added, so every kernel equals the one-at-a-time triple loop
// bit for bit (TestGemmMatchesNaive, TestKernelsMatchNaive), and a product
// run over a transposed copy equals the one it replaces.
//
// The kernels — gemm's tiles, matMulT2Row, transpose4, Adam's adamRow and
// softmax's softmaxShift, exp4 and softmaxNorm — are assembly on amd64 CPUs
// with AVX2 and FMA (kernels_amd64.s), four lanes per instruction
// (matMulT2Row two, softmaxNorm's sums one per row), each lane the Go loop's
// operations in its order (exp4's, math.Exp's; softmaxShift's maximum is
// order-free); elsewhere they are the Go loops below (suffix Go), which the
// tests hold the assembly to.
// The code here slices every operand to the length the assembly will touch,
// so a malformed Mat panics in Go before any pointer reaches it.
//
// No kernel carries a zero-skip branch. The seed code skipped
// multiplications where the activation was exactly zero, but post-embedding
// activations are dense (BenchmarkMatMulSkip measures the branch as a wash
// there), and where exact zeros are common — ReLU outputs feeding a weight
// gradient — adding ±0·dy to a gradient that starts at +0 moves no bit for
// a finite dy (TestWeightGradSkipWasNoOp).

// Pool is the receiver the exported kernels hang off. It holds nothing and
// every method works on a nil *Pool. The type, NewPool and the Runtime.Pool
// field are here only because the frozen bench/ module names them; turning the
// methods into plain functions waits for a benchmark PR.
type Pool struct{}

// NewPool returns a Pool. Its argument is ignored.
func NewPool(int) *Pool { return &Pool{} }

// DefaultThreads is runtime.GOMAXPROCS(0), read at call time. Nothing in the
// module calls it since one trunk per workload replaced predictor.Train's
// worker pool; like Pool, it waits for the benchmark PR that unfreezes bench/.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// dstCheck panics when dst does not have the required shape.
func dstCheck(dst *Mat, rows, cols int, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("nn: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// MatMulInto computes dst = a @ b. dst must not alias a or b.
//
//pythia:noalloc
func (*Pool) MatMulInto(dst, a, b *Mat) {
	shapeCheck(a.Cols == b.Rows, "matmul", a, b)
	dstCheck(dst, a.Rows, b.Cols, "matmul")
	matMul(dst, a, b)
}

// matMul computes dst = a @ b.
//
//pythia:noalloc
func matMul(dst, a, b *Mat) {
	gemm(dst.Data, dst.Cols, a.Data, a.Cols, b.Data, b.Cols, a.Rows, a.Cols, b.Cols, nil, false, false)
}

// gemm computes o[i·ldo+j] = act(s + Σₚ a[i·lda+p]·b[p·ldb+j] + bias[j]) for
// i < m, j < n and p < k, where s is +0, or o's current value when acc is
// set: each output starts at s and adds its products in ascending p; then,
// when bias is not nil, bias[j]; then, when relu is set, act(x) is x if x > 0
// and +0 otherwise (−0 and NaN included), else x. Each operand is a
// row-major matrix read in place with its own row stride, so a column block
// of a wider matrix is an operand with no copy. o must not overlap a, b or
// bias. gemm slices every operand to the extent gemmKernel touches, so a
// malformed one panics here.
//
//pythia:noalloc
func gemm(o []float64, ldo int, a []float64, lda int, b []float64, ldb int, m, k, n int, bias []float64, relu, acc bool) {
	if m < 0 || k < 0 || n < 0 || ldo < n || lda < k || ldb < n {
		panic("nn: gemm with a negative size or a row stride below its width")
	}
	if m == 0 || n == 0 {
		return
	}
	o = o[:(m-1)*ldo+n]
	if k == 0 {
		a, lda, b, ldb = nil, 0, nil, 0
	} else {
		a, b = a[:(m-1)*lda+k], b[:(k-1)*ldb+n]
	}
	if bias != nil {
		bias = bias[:n]
	}
	gemmKernel(o, ldo, a, lda, b, ldb, m, k, n, bias, relu, acc)
}

// gemmGo is gemm's loop, one output row at a time, p four steps at a time
// (each output loaded and stored once per four multiply-adds), added in the
// order the contract gives.
//
//pythia:noalloc
func gemmGo(o []float64, ldo int, a []float64, lda int, b []float64, ldb int, m, k, n int, bias []float64, relu, acc bool) {
	for i := 0; i < m; i++ {
		orow, arow := o[i*ldo:][:n], a[i*lda:][:k]
		if !acc {
			for j := range orow {
				orow[j] = 0
			}
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			b0, b1, b2, b3 := b[p*ldb:][:n], b[(p+1)*ldb:][:n], b[(p+2)*ldb:][:n], b[(p+3)*ldb:][:n]
			for j := range orow {
				orow[j] = orow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; p < k; p++ {
			av, brow := arow[p], b[p*ldb:][:n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
		if bias != nil {
			for j, v := range bias {
				orow[j] += v
			}
		}
		if relu {
			for j, v := range orow {
				if !(v > 0) {
					orow[j] = 0
				}
			}
		}
	}
}

// MatMulT1Into computes dst = aᵀ @ b (weight-gradient shape: dW = Xᵀ dY).
//
//pythia:noalloc
func (*Pool) MatMulT1Into(dst, a, b *Mat) {
	shapeCheck(a.Rows == b.Rows, "matmulT1", a, b)
	dstCheck(dst, a.Cols, b.Cols, "matmulT1")
	matMulT1(dst, a, b)
}

// matMulT1 computes dst = aᵀ @ b, row i of dst (column i of a) one row of b
// at a time, each output a sum over a's rows in ascending order. No training path calls it: weight gradients are
// an accumulating gemm over a transposed copy of x (Linear.Backward), and
// attention's backward pass transposes its probabilities the same way. It
// stays, as a plain loop, for the bench-pinned MatMulT1Into and MatMulT1.
//
//pythia:noalloc
func matMulT1(dst, a, b *Mat) {
	m, n := a.Cols, b.Cols
	for i := 0; i < m; i++ {
		orow := dst.Row(i)[:n]
		for j := range orow {
			orow[j] = 0
		}
		for r := 0; r < a.Rows; r++ {
			av, brow := a.Data[r*m+i], b.Data[r*n:][:n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// MatMulT2Into computes dst = a @ bᵀ (input-gradient shape: dX = dY Wᵀ).
//
//pythia:noalloc
func (*Pool) MatMulT2Into(dst, a, b *Mat) {
	shapeCheck(a.Cols == b.Cols, "matmulT2", a, b)
	dstCheck(dst, a.Rows, b.Rows, "matmulT2")
	matMulT2(dst, a, b)
}

// matMulT2 computes dst = a @ bᵀ one output row per matMulT2Row call. One
// call per row, not per four outputs: the attention heads' dot products are
// only Dh long, and an assembly call per four of them measured slower than
// the Go loop.
//
//pythia:noalloc
func matMulT2(dst, a, b *Mat) {
	for i := 0; i < a.Rows; i++ {
		arow, orow := a.Row(i), dst.Row(i)
		matMulT2Row(orow, arow, b.Data[:len(orow)*len(arow)])
	}
}

// matMulT2RowGo computes o[j] = a · b[j·len(a):][:len(a)], four outputs (four
// rows of b) per pass over a.
//
//pythia:noalloc
func matMulT2RowGo(o, a, b []float64) {
	d := len(a)
	j := 0
	for ; j+4 <= len(o); j += 4 {
		r := b[j*d:]
		b0, b1, b2, b3 := r[:d], r[d:][:d], r[2*d:][:d], r[3*d:][:d]
		var s0, s1, s2, s3 float64
		for k, av := range a {
			s0 += av * b0[k]
			s1 += av * b1[k]
			s2 += av * b2[k]
			s3 += av * b3[k]
		}
		o[j], o[j+1], o[j+2], o[j+3] = s0, s1, s2, s3
	}
	for ; j < len(o); j++ {
		br := b[j*d:][:d]
		s := 0.0
		for k, av := range a {
			s += av * br[k]
		}
		o[j] = s
	}
}

// transposeInto sets dst = aᵀ, four rows of a (four columns of dst) per
// transpose4 call.
//
//pythia:noalloc
func transposeInto(dst, a *Mat) {
	dstCheck(dst, a.Cols, a.Rows, "transpose")
	m, n := a.Rows, a.Cols
	i := 0
	for ; i+4 <= m && n > 0; i += 4 {
		transpose4(dst.Data[i:][:(n-1)*m+4], m, a.Data[i*n:(i+4)*n])
	}
	for ; i < m; i++ {
		col := dst.Data[i:]
		for j, v := range a.Row(i) {
			col[j*m] = v
		}
	}
}

// transpose4Go writes column j of the four rows in a (each len(a)/4 long) to
// o[j·stride:][:4].
//
//pythia:noalloc
func transpose4Go(o []float64, stride int, a []float64) {
	n := len(a) / 4
	r0, r1, r2, r3 := a[:n], a[n:][:n], a[2*n:][:n], a[3*n:][:n]
	for j := range r0 {
		c := o[j*stride:][:4]
		c[0], c[1], c[2], c[3] = r0[j], r1[j], r2[j], r3[j]
	}
}

// expInPlace sets x[i] = math.Exp(x[i]) for every i: exp4 takes the whole
// quads it can, and math.Exp each quad exp4 stops at and the last len(x)
// mod 4 elements.
//
//pythia:noalloc
func expInPlace(x []float64) {
	for i := 0; i < len(x); {
		i += exp4(x[i:])
		for end := min(i+4, len(x)); i < end; i++ {
			x[i] = math.Exp(x[i])
		}
	}
}

// exp4Go sets x[i] = math.Exp(x[i]) for i below len(x) rounded down to a
// multiple of 4, and returns that count.
//
//pythia:noalloc
func exp4Go(x []float64) int {
	n := len(x) &^ 3
	for i, v := range x[:n] {
		x[i] = math.Exp(v)
	}
	return n
}

// softmaxShiftGo sets each v of every n-wide row of x to v·scale − max, max
// the row's largest v·scale (−Inf if none is larger; a NaN never is). The
// maximum is a serial chain, so four rows' chains run side by side (rows4).
//
//pythia:noalloc
func softmaxShiftGo(x []float64, n int, scale float64) {
	for i := 0; i < len(x); i += 4 * n {
		x := x[i:min(i+4*n, len(x))]
		r0, r1, r2, r3 := rows4(x, n)
		m0, m1, m2, m3 := math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
		for j := range r0 {
			v0, v1, v2, v3 := r0[j]*scale, r1[j]*scale, r2[j]*scale, r3[j]*scale
			r0[j], r1[j], r2[j], r3[j] = v0, v1, v2, v3
			if v0 > m0 {
				m0 = v0
			}
			if v1 > m1 {
				m1 = v1
			}
			if v2 > m2 {
				m2 = v2
			}
			if v3 > m3 {
				m3 = v3
			}
		}
		maxes := [4]float64{m0, m1, m2, m3}
		for q := range len(x) / n {
			row, mx := x[q*n:][:n], maxes[q]
			for j, v := range row {
				row[j] = v - mx
			}
		}
	}
}

// softmaxNormGo multiplies every n-wide row of x by 1/sum, the sum of the
// row from +0 in ascending column order, four rows' chains side by side.
//
//pythia:noalloc
func softmaxNormGo(x []float64, n int) {
	for i := 0; i < len(x); i += 4 * n {
		x := x[i:min(i+4*n, len(x))]
		r0, r1, r2, r3 := rows4(x, n)
		var s0, s1, s2, s3 float64
		for j := range r0 {
			s0 += r0[j]
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		sums := [4]float64{s0, s1, s2, s3}
		for q := range len(x) / n {
			row, inv := x[q*n:][:n], 1/sums[q]
			for j := range row {
				row[j] *= inv
			}
		}
	}
}

// AddInto computes dst = a + b element-wise.
//
//pythia:noalloc
func (*Pool) AddInto(dst, a, b *Mat) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "add", a, b)
	dstCheck(dst, a.Rows, a.Cols, "add")
	da, db, dd := a.Data, b.Data[:len(a.Data)], dst.Data[:len(a.Data)]
	for i := range da {
		dd[i] = da[i] + db[i]
	}
}
