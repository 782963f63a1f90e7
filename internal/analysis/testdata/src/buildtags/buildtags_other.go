//go:build !amd64

package buildtags

import "time"

func width(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano() // want "time.Now"
}
