package nn

import "fmt"

// Destination-passing compute kernels. Each kernel writes into a
// caller-supplied matrix (usually from an Arena) instead of allocating, and
// each has a range form that computes only the output elements in [lo, hi)
// — the unit the Pool shards across workers.
//
// Determinism: every output element is owned by exactly one shard, and the
// per-element floating-point accumulation order (ascending over the
// contracted index) is identical in the range kernels and the serial
// reference implementations in mat.go. Sharding therefore changes which
// goroutine computes an element, never the bit pattern of the result; see
// the golden tests in pool_test.go.
//
// Register blocking: the loops are unrolled four ways so that an output
// element is loaded and stored once per four multiply-adds instead of once
// per one. The products whose inner loop walks an output row (a @ b, aᵀ @ b)
// take four steps of the contracted index at a time (axpy4); a @ bᵀ, whose
// inner loop is a dot product, computes four output elements at a time in
// four independent accumulators. Neither reorders a sum: each element is
// still ((o + p₀) + p₁) + p₂ … over ascending contracted index, each product
// rounded before it is added, so the blocked kernels equal the one-at-a-time
// triple loop bit for bit (TestKernelsMatchNaive).
//
// The dense kernels carry no zero-skip branch. The seed code skipped
// multiplications where the activation was exactly zero (useful for one-hot
// rows), but post-embedding activations are dense: BenchmarkMatMulSkip
// measures the branch as a wash there (a never-taken branch predicts
// perfectly), and no matmul call site in the model feeds one-hot rows, so
// the dense kernels drop it as dead weight. The one place exact zeros are
// common — ReLU outputs feeding a weight-gradient accumulation, where one
// skip saves a whole b-row walk — keeps it in AccumT1Into, a measured ~2×
// win at half-sparsity (BenchmarkAccumT1Sparse).

// dstCheck panics when dst does not have the required shape.
func dstCheck(dst *Mat, rows, cols int, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("nn: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// serial reports whether a kernel of roughly work scalar ops should skip the
// fan-out entirely. Every Pool method checks this *before* constructing its
// shard closure: a func literal is heap-allocated at the point it appears,
// so keeping it out of the serial path is what makes steady-state training
// steps allocation-free at Threads=1 (TestArenaSteadyStateAllocs).
func (p *Pool) serial(work int) bool {
	return p.Threads() <= 1 || work < parallelMinWork
}

// MatMulInto computes dst = a @ b. dst must not alias a or b.
func (p *Pool) MatMulInto(dst, a, b *Mat) {
	shapeCheck(a.Cols == b.Rows, "matmul", a, b)
	dstCheck(dst, a.Rows, b.Cols, "matmul")
	work := a.Rows * a.Cols * b.Cols
	if p.serial(work) {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	// Row-shard when there are enough output rows to feed every worker;
	// otherwise (e.g. the decoder's 1×D @ D×pages layer) shard the output
	// columns. Both preserve the per-element k-ascending accumulation
	// order, so the choice affects speed only.
	if a.Rows >= p.Threads() || a.Rows >= b.Cols {
		p.shard(a.Rows, work, func(lo, hi int) { matMulRows(dst, a, b, lo, hi) })
	} else {
		p.shard(b.Cols, work, func(lo, hi int) { matMulCols(dst, a, b, lo, hi) })
	}
}

// axpy1 computes o[j] += a·b[j].
//
//pythia:noalloc
func axpy1(o []float64, a float64, b []float64) {
	b = b[:len(o)]
	for j := range o {
		o[j] += a * b[j]
	}
}

// axpy4 computes o[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j], added
// left to right — four consecutive axpy1 steps with one load and one store of
// o[j]. The re-slicing to len(o) lets the compiler drop the bounds checks
// from the loop.
//
//pythia:noalloc
func axpy4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		o[j] = o[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// matMulBlock computes the [ilo, ihi) × [jlo, jhi) block of a @ b in i-k-j
// order, k four at a time: the inner loop walks b and dst rows contiguously,
// which matters for the decoder's wide output layer.
//
//pythia:noalloc
func matMulBlock(dst, a, b *Mat, ilo, ihi, jlo, jhi int) {
	n := b.Cols
	for i := ilo; i < ihi; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)[jlo:jhi]
		for j := range orow {
			orow[j] = 0
		}
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			r := b.Data[k*n:]
			axpy4(orow, arow[k], arow[k+1], arow[k+2], arow[k+3],
				r[jlo:jhi], r[n+jlo:n+jhi], r[2*n+jlo:2*n+jhi], r[3*n+jlo:3*n+jhi])
		}
		for ; k < len(arow); k++ {
			axpy1(orow, arow[k], b.Data[k*n+jlo:k*n+jhi])
		}
	}
}

// matMulRows computes dst rows [lo, hi) of a @ b.
//
//pythia:noalloc
func matMulRows(dst, a, b *Mat, lo, hi int) { matMulBlock(dst, a, b, lo, hi, 0, b.Cols) }

// matMulCols computes dst columns [jlo, jhi) of a @ b for all rows.
//
//pythia:noalloc
func matMulCols(dst, a, b *Mat, jlo, jhi int) { matMulBlock(dst, a, b, 0, a.Rows, jlo, jhi) }

// MatMulT1Into computes dst = aᵀ @ b (weight-gradient shape: dW = Xᵀ dY).
// Restructured from the serial r-outer loop so that each *output* row i
// (column i of a) is owned by exactly one worker; the contraction still
// runs r-ascending per element, so results match MatMulT1 bitwise.
func (p *Pool) MatMulT1Into(dst, a, b *Mat) {
	shapeCheck(a.Rows == b.Rows, "matmulT1", a, b)
	dstCheck(dst, a.Cols, b.Cols, "matmulT1")
	work := a.Rows * a.Cols * b.Cols
	if p.serial(work) {
		matMulT1Rows(dst, a, b, 0, a.Cols)
		return
	}
	p.shard(a.Cols, work, func(lo, hi int) { matMulT1Rows(dst, a, b, lo, hi) })
}

//pythia:noalloc
func matMulT1Rows(dst, a, b *Mat, ilo, ihi int) {
	m, n := a.Cols, b.Cols
	for i := ilo; i < ihi; i++ {
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		r := 0
		for ; r+4 <= a.Rows; r += 4 {
			ac, br := a.Data[r*m+i:], b.Data[r*n:]
			axpy4(orow, ac[0], ac[m], ac[2*m], ac[3*m], br, br[n:], br[2*n:], br[3*n:])
		}
		for ; r < a.Rows; r++ {
			axpy1(orow, a.Data[r*m+i], b.Data[r*n:])
		}
	}
}

// AccumT1Into computes dst += aᵀ @ b without clearing dst — the in-place
// weight-gradient accumulation (dW += Xᵀ dY). Rows of dst are owned by one
// worker each, like MatMulT1Into. The zero-skip stays here on purpose: a is
// an activation matrix that is ReLU output at the decoder and FFN second
// layers, where roughly half the entries are exactly zero and skipping a
// whole b-row walk per zero is a measured win (BenchmarkAccumT1Sparse) that
// costs little on dense inputs.
func (p *Pool) AccumT1Into(dst, a, b *Mat) {
	shapeCheck(a.Rows == b.Rows, "accumT1", a, b)
	dstCheck(dst, a.Cols, b.Cols, "accumT1")
	work := a.Rows * a.Cols * b.Cols
	if p.serial(work) {
		accumT1Rows(dst, a, b, 0, a.Cols)
		return
	}
	p.shard(a.Cols, work, func(lo, hi int) { accumT1Rows(dst, a, b, lo, hi) })
}

//pythia:noalloc
func accumT1Rows(dst, a, b *Mat, ilo, ihi int) {
	m, n := a.Cols, b.Cols
	for i := ilo; i < ihi; i++ {
		orow := dst.Row(i)
		r := 0
		for ; r+4 <= a.Rows; r += 4 {
			ac, br := a.Data[r*m+i:], b.Data[r*n:]
			a0, a1, a2, a3 := ac[0], ac[m], ac[2*m], ac[3*m]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				axpy4(orow, a0, a1, a2, a3, br, br[n:], br[2*n:], br[3*n:])
				continue
			}
			// A block holding a zero takes its steps one at a time: a
			// skipped step stays skipped — "+ 0·b" is not a no-op when the
			// sum is −0 or b is not finite — and ReLU-sparse inputs keep the
			// whole saving (BenchmarkAccumT1Sparse).
			for q := 0; q < 4; q++ {
				if av := ac[q*m]; av != 0 {
					axpy1(orow, av, br[q*n:])
				}
			}
		}
		for ; r < a.Rows; r++ {
			if av := a.Data[r*m+i]; av != 0 {
				axpy1(orow, av, b.Data[r*n:])
			}
		}
	}
}

// MatMulT2Into computes dst = a @ bᵀ (input-gradient shape: dX = dY Wᵀ).
func (p *Pool) MatMulT2Into(dst, a, b *Mat) {
	shapeCheck(a.Cols == b.Cols, "matmulT2", a, b)
	dstCheck(dst, a.Rows, b.Rows, "matmulT2")
	work := a.Rows * a.Cols * b.Rows
	if p.serial(work) {
		matMulT2Rows(dst, a, b, 0, a.Rows)
		return
	}
	if a.Rows >= p.Threads() || a.Rows >= b.Rows {
		p.shard(a.Rows, work, func(lo, hi int) { matMulT2Rows(dst, a, b, lo, hi) })
	} else {
		p.shard(b.Rows, work, func(lo, hi int) { matMulT2Cols(dst, a, b, lo, hi) })
	}
}

// matMulT2Block computes the [ilo, ihi) × [jlo, jhi) block of a @ bᵀ, four
// output elements (four rows of b) per pass over a's row.
//
//pythia:noalloc
func matMulT2Block(dst, a, b *Mat, ilo, ihi, jlo, jhi int) {
	for i := ilo; i < ihi; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		j := jlo
		for ; j+4 <= jhi; j += 4 {
			b0, b1, b2, b3 := b.Row(j)[:len(arow)], b.Row(j + 1)[:len(arow)], b.Row(j + 2)[:len(arow)], b.Row(j + 3)[:len(arow)]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < jhi; j++ {
			brow := b.Row(j)[:len(arow)]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

//pythia:noalloc
func matMulT2Rows(dst, a, b *Mat, lo, hi int) { matMulT2Block(dst, a, b, lo, hi, 0, b.Rows) }

//pythia:noalloc
func matMulT2Cols(dst, a, b *Mat, jlo, jhi int) { matMulT2Block(dst, a, b, 0, a.Rows, jlo, jhi) }

// AddInto computes dst = a + b element-wise. Elements are owned, not
// accumulated, so any sharding is trivially deterministic.
func (p *Pool) AddInto(dst, a, b *Mat) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "add", a, b)
	dstCheck(dst, a.Rows, a.Cols, "add")
	if p.serial(len(a.Data)) {
		addRange(dst, a, b, 0, len(a.Data))
		return
	}
	p.shard(len(a.Data), len(a.Data), func(lo, hi int) { addRange(dst, a, b, lo, hi) })
}

//pythia:noalloc
func addRange(dst, a, b *Mat, lo, hi int) {
	da, db, dd := a.Data[lo:hi], b.Data[lo:hi], dst.Data[lo:hi]
	for i := range dd {
		dd[i] = da[i] + db[i]
	}
}

// AddInPlace accumulates b into a.
func (p *Pool) AddInPlace(a, b *Mat) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "add", a, b)
	if p.serial(len(a.Data)) {
		accumRange(a, b, 0, len(a.Data))
		return
	}
	p.shard(len(a.Data), len(a.Data), func(lo, hi int) { accumRange(a, b, lo, hi) })
}

//pythia:noalloc
func accumRange(a, b *Mat, lo, hi int) {
	da, db := a.Data[lo:hi], b.Data[lo:hi]
	for i := range db {
		da[i] += db[i]
	}
}

// SoftmaxRows applies a numerically stable softmax to each row of m in
// place, sharding rows across the pool (rows are independent).
func (p *Pool) SoftmaxRows(m *Mat) {
	if p.serial(len(m.Data) * 4) {
		softmaxRowRange(m, 0, m.Rows)
		return
	}
	p.shard(m.Rows, len(m.Data)*4, func(lo, hi int) { softmaxRowRange(m, lo, hi) })
}

//pythia:noalloc
func softmaxRowRange(m *Mat, lo, hi int) {
	for i := lo; i < hi; i++ {
		softmaxRow(m.Row(i))
	}
}
