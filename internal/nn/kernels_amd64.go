package nn

// The SSE2 kernels of kernels_amd64.s, one per Go loop with the same name
// and suffix Go, which they equal bit for bit (TestKernelsMatchNaive,
// TestAdamMatchesScalar). The assembly reads and writes exactly the elements
// the Go loop would and checks no bounds: every caller slices its operands to
// the lengths given here first.

// axpy4 is axpy4Go; len(b) ≥ 4·len(o).
//
//go:noescape
func axpy4(o []float64, a0, a1, a2, a3 float64, b []float64)

// axpy1 is axpy1Go; len(b) ≥ len(o).
//
//go:noescape
func axpy1(o []float64, a float64, b []float64)

// matMulRow is matMulRowGo; len(b) ≥ len(a)·len(o).
//
//go:noescape
func matMulRow(o, a, b []float64)

// matMulT2Row is matMulT2RowGo; len(b) ≥ len(o)·len(a).
//
//go:noescape
func matMulT2Row(o, a, b []float64)

// adamRow is adamRowGo; g, m and v are at least len(w) long.
//
//go:noescape
func adamRow(w, g, m, v []float64, scale, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64)
