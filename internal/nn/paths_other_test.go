//go:build !amd64

package nn

import "testing"

// kernelPaths runs f on the one kernel path there is: the Go loops.
func kernelPaths(t *testing.T, f func(t *testing.T)) { t.Run("go", f) }
