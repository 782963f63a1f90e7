package sim

// FNV-64a parameters, spelled out so callers hash ints and strings without
// converting to bytes or allocating a hash.Hash64.
const (
	FNVOffset64 uint64 = 14695981039346656037
	FNVPrime64  uint64 = 1099511628211
)

// FNV64a hashes a string with FNV-64a, the repository's one
// non-cryptographic string hash: identical to hash/fnv's New64a over the
// string's bytes.
//
//pythia:noalloc
func FNV64a(s string) uint64 {
	h := FNVOffset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * FNVPrime64
	}
	return h
}

// Mix64 is the splitmix64 finalizer. FNV-64a of short, similar strings (and
// small integers) clusters in the upper bits; one multiply-xorshift round
// spreads them uniformly, which is what ring positions and bucket indices
// need. It is also the output step of NewRand's seed expansion.
//
//pythia:noalloc
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
