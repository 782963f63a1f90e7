//go:build !amd64

package nn

// Without the assembly of kernels_amd64.s the Go loops are the kernels, as
// they are on an amd64 CPU without AVX2 or FMA: gemm's tiles are gemmGo's
// rows, and softmax calls math.Exp per element.

func gemmKernel(o []float64, ldo int, a []float64, lda int, b []float64, ldb int, m, k, n int, bias []float64, relu, acc bool) {
	gemmGo(o, ldo, a, lda, b, ldb, m, k, n, bias, relu, acc)
}

func matMulT2Row(o, a, b []float64) { matMulT2RowGo(o, a, b) }

func transpose4(o []float64, stride int, a []float64) { transpose4Go(o, stride, a) }

func adamRow(w, g, m, v []float64, scale, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64) {
	adamRowGo(w, g, m, v, scale, beta1, c1, beta2, c2, bc1, bc2, lr, eps)
}

func exp4(x []float64) int { return exp4Go(x) }

func softmaxShift(x []float64, n int, scale float64) { softmaxShiftGo(x, n, scale) }

func softmaxNorm(x []float64, n int) { softmaxNormGo(x, n) }
