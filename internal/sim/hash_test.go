package sim

import (
	"hash/fnv"
	"testing"
)

// TestHashes pins the two shared hashes: FNV64a is hash/fnv's New64a, and
// Mix64 after one golden-ratio step from 0 is splitmix64's published first
// output.
func TestHashes(t *testing.T) {
	for _, s := range []string{"", "a", "replica-0/0", "v:t91:3"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := FNV64a(s), h.Sum64(); got != want {
			t.Errorf("FNV64a(%q) = %#x, want %#x", s, got, want)
		}
	}
	if got := Mix64(0x9e3779b97f4a7c15); got != 0xe220a8397b1dcdaf {
		t.Errorf("Mix64 = %#x, want splitmix64's 0xe220a8397b1dcdaf", got)
	}
}
