package nn

import (
	"os"
	"testing"
)

// TestMain runs the package's tests with the arena poisoned: every matrix
// Get hands out is NaN throughout, so a destination read before it is
// written changes a golden or an oracle instead of reading a stale value
// that happens to be right.
func TestMain(m *testing.M) {
	poisonArena = true
	os.Exit(m.Run())
}
