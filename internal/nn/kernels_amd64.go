package nn

// The kernels of kernels_amd64.s, one per Go loop: gemmKernel's is gemmGo,
// every other's has its name and suffix Go. On a CPU with AVX, AVX2 and FMA
// each is assembly that equals its Go loop bit for bit (softmaxShift up to
// the sign of a zero maximum, which its exponentials erase); otherwise each
// jumps straight to its Go loop, the path every other architecture runs.
// TestGemmMatchesNaive, TestKernelsMatchNaive, TestAdamMatchesScalar,
// TestExpMatchesMath and TestSoftmaxRowsMatchesScalar hold both paths to the
// same oracles. The assembly reads and writes exactly the elements the Go
// loop would and checks no bounds: every caller slices its operands to the
// lengths given here first.

// useAVX is whether the CPU has AVX, AVX2 and FMA and the OS saves the YMM
// registers, read once at start-up; nothing else selects a path. Tests flip
// it to run both. FMA is in it because exp4 equals math.Exp only where
// math.Exp takes its FMA path, which it does exactly when the CPU has AVX
// and FMA; a CPU with AVX but not AVX2 or FMA runs the Go loops.
var useAVX = hasAVX()

// hasAVX reads CPUID's AVX, FMA, OSXSAVE and AVX2 bits and XGETBV's XMM and
// YMM bits.
func hasAVX() bool

// gemmKernel is gemmGo; gemm sets its operands' lengths.
//
//go:noescape
func gemmKernel(o []float64, ldo int, a []float64, lda int, b []float64, ldb int, m, k, n int, bias []float64, relu, acc bool)

// matMulT2Row is matMulT2RowGo; len(b) ≥ len(o)·len(a).
//
//go:noescape
func matMulT2Row(o, a, b []float64)

// transpose4 is transpose4Go; len(a) is a multiple of 4 and len(o) ≥
// (len(a)/4 − 1)·stride + 4.
//
//go:noescape
func transpose4(o []float64, stride int, a []float64)

// adamRow is adamRowGo; g, m and v are at least len(w) long.
//
//go:noescape
func adamRow(w, g, m, v []float64, scale, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64)

// exp4 is exp4Go over x's leading quads, up to the first it cannot compute
// exactly; it returns how many elements it did. See expInPlace.
//
//go:noescape
func exp4(x []float64) int

// softmaxShift is softmaxShiftGo but for which zero a ±0 tie for the maximum
// keeps (see kernels_amd64.s); n > 0 and len(x) is a multiple of n.
//
//go:noescape
func softmaxShift(x []float64, n int, scale float64)

// softmaxNorm is softmaxNormGo; n > 0 and len(x) is a multiple of n.
//
//go:noescape
func softmaxNorm(x []float64, n int)
