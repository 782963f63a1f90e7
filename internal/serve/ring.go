package serve

import (
	"sort"
	"strconv"

	"github.com/pythia-db/pythia/internal/sim"
)

// ringVNodes is how many virtual nodes each replica contributes to the hash
// ring. More virtual nodes smooth the key distribution (and the remap
// fraction when the replica count changes) at the cost of a slightly larger
// sorted array; 64 keeps the per-replica load within a few percent of even
// for the fingerprint distributions FNV-64a produces.
const ringVNodes = 64

// hashRing is a consistent-hash ring over replica indices. Plan fingerprints
// (predictor.Fingerprint with the workload name folded in — the same key the
// prediction cache uses) map to the first ring point at or clockwise after
// the fingerprint, so the same plan always lands on the same replica and its
// cached prediction stays resident exactly once across the pool. Changing
// the replica count remaps only the arc segments owned by the added or
// removed replica — roughly 1/N of the key space — so most of the pool's
// cache investment survives a resize.
//
// The ring is immutable after construction: lookups are a binary search over
// a sorted slice, safe for any number of concurrent readers.
type hashRing struct {
	points []ringPoint
}

// ringPoint is one virtual node: a hash position and the replica owning it.
type ringPoint struct {
	hash    uint64
	replica int
}

// newRing builds the ring for a replica count. Virtual-node positions hash
// the label "replica-<r>/<v>" with FNV-64a — a pure function of (r, v), so
// routing is identical across processes and runs.
func newRing(replicas int) *hashRing {
	if replicas < 1 {
		replicas = 1
	}
	points := make([]ringPoint, 0, replicas*ringVNodes)
	for r := 0; r < replicas; r++ {
		for v := 0; v < ringVNodes; v++ {
			label := "replica-" + strconv.Itoa(r) + "/" + strconv.Itoa(v)
			points = append(points, ringPoint{hash: sim.Mix64(sim.FNV64a(label)), replica: r})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// A 64-bit collision between labels is vanishingly unlikely, but the
		// tie-break keeps the sort — and therefore routing — deterministic
		// even then.
		return points[i].replica < points[j].replica
	})
	return &hashRing{points: points}
}

// lookup returns the replica owning a fingerprint: lookupN's first replica.
//
//pythia:noalloc
func (r *hashRing) lookup(fp uint64) int {
	var owner [1]int
	return r.lookupN(fp, owner[:0], 1)[0]
}

// lookupN appends to dst the first n distinct replicas encountered walking
// clockwise from the fingerprint's position — the first point at or after
// it, wrapping to the ring's start: the owner first, then its failover
// successors in ring order. Walking the ring (rather than numeric index
// order) keeps failover affinity consistent — every request for the same
// fingerprint fails over to the same successor, so the successor's cache
// absorbs the sick replica's shard instead of scattering it. n is clamped to
// the replica count; the returned slice is dst extended in place when its
// capacity allows. Binary search is written out rather than using
// sort.Search so the hot routing path stays closure- and allocation-free.
//
//pythia:noalloc
func (r *hashRing) lookupN(fp uint64, dst []int, n int) []int {
	fp = sim.Mix64(fp)
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < fp {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var seen uint64 // replica-index bitmask; Options.Normalize caps replicas at 64
	for i := 0; i < len(r.points) && n > 0; i++ {
		rep := r.points[(lo+i)%len(r.points)].replica
		if seen&(1<<uint(rep)) != 0 {
			continue
		}
		seen |= 1 << uint(rep)
		dst = append(dst, rep)
		n--
	}
	return dst
}
