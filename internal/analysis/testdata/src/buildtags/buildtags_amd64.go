package buildtags

import "time"

// width has an assembly body on amd64.
//
//go:noescape
func width(x []float64) float64

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano() // want "time.Now"
}
