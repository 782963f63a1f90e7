// Package buildtags is a golden fixture for the loader's build constraints:
// width is declared in buildtags_amd64.go (body-less, as for an assembly
// function) and defined in buildtags_other.go under //go:build !amd64.
// Loaded together the two files are a redeclaration, so the fixture loads
// only if the loader keeps just the file this platform builds. Each file
// holds the same violation, so every platform expects exactly one report,
// from the file it built.
package buildtags

// Sum returns the sum of x.
func Sum(x []float64) float64 { return width(x) }
