package nn

import "testing"

// kernelPaths runs f once per kernel path: the assembly, skipped with the
// reason on a CPU that cannot run it, and the Go loops every CPU runs.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(saved bool) { useAVX = saved }(useAVX)
	t.Run("avx", func(t *testing.T) {
		if !hasAVX() {
			t.Skip("the CPU lacks AVX, AVX2 or FMA, or the OS does not save the YMM registers, so only the Go loops run here")
		}
		useAVX = true
		f(t)
	})
	t.Run("go", func(t *testing.T) {
		useAVX = false
		f(t)
	})
}
