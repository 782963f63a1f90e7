package serve

import (
	"reflect"
	"strconv"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// testFingerprints derives a deterministic spread of fingerprint keys, the
// same way production fingerprints come out of FNV-64a.
func testFingerprints(n int) []uint64 {
	fps := make([]uint64, n)
	for i := range fps {
		fps[i] = sim.FNV64a("plan-" + strconv.Itoa(i))
	}
	return fps
}

// TestRingDeterministicRouting: routing is a pure function of (replica count,
// fingerprint) — two independently built rings agree on every key, so any
// process (or restart) routes identically.
func TestRingDeterministicRouting(t *testing.T) {
	a, b := newRing(4), newRing(4)
	if len(a.points) != 4*ringVNodes {
		t.Fatalf("%d ring points, want %d", len(a.points), 4*ringVNodes)
	}
	hits := make([]int, 4)
	for _, fp := range testFingerprints(4096) {
		ra, rb := a.lookup(fp), b.lookup(fp)
		if ra != rb {
			t.Fatalf("rings disagree on %#x: %d vs %d", fp, ra, rb)
		}
		if ra < 0 || ra > 3 {
			t.Fatalf("lookup(%#x) = %d out of range", fp, ra)
		}
		hits[ra]++
	}
	// 64 virtual nodes keep the key distribution roughly even: no replica may
	// starve or own the majority of the space.
	for r, n := range hits {
		if n < 4096/4/4 || n > 4096*3/4 {
			t.Fatalf("replica %d owns %d/4096 keys — distribution badly skewed: %v", r, n, hits)
		}
	}
}

// TestRingBoundedRemap: growing the pool remaps only the arcs the new replica
// takes over — about 1/(N+1) of the key space — so most cached predictions
// stay on the replica that owns them across a resize. A modulo router would
// remap ~80% here.
func TestRingBoundedRemap(t *testing.T) {
	before, after := newRing(4), newRing(5)
	fps := testFingerprints(8192)
	remapped := 0
	for _, fp := range fps {
		was, is := before.lookup(fp), after.lookup(fp)
		if was != is {
			remapped++
			// Consistent hashing only moves keys onto the added replica; a key
			// hopping between two surviving replicas would mean unrelated cache
			// entries were invalidated.
			if is != 4 {
				t.Fatalf("key %#x moved %d→%d, not to the added replica", fp, was, is)
			}
		}
	}
	frac := float64(remapped) / float64(len(fps))
	if frac == 0 {
		t.Fatal("no keys remapped — the added replica owns nothing")
	}
	if frac > 0.4 {
		t.Fatalf("%.0f%% of keys remapped adding 1 of 5 replicas, want ~20%%", frac*100)
	}
}

// TestRingSingleReplica: a one-replica ring routes everything to replica 0
// (and a nonsensical count clamps rather than panics).
func TestRingSingleReplica(t *testing.T) {
	r := newRing(1)
	for _, fp := range testFingerprints(64) {
		if r.lookup(fp) != 0 {
			t.Fatal("single-replica ring routed off replica 0")
		}
	}
	if n := len(newRing(0).points); n != ringVNodes {
		t.Fatalf("zero-replica ring has %d points, want one replica's %d", n, ringVNodes)
	}
}

// TestRingLookupN: the failover order is the owner followed by distinct ring
// successors — deterministic, duplicate-free, clamped to the replica count,
// and always led by exactly what lookup returns.
func TestRingLookupN(t *testing.T) {
	a, b := newRing(4), newRing(4)
	var buf [8]int
	for _, fp := range testFingerprints(2048) {
		order := a.lookupN(fp, buf[:0], 4)
		if len(order) != 4 {
			t.Fatalf("lookupN(%#x, 4) returned %d replicas", fp, len(order))
		}
		if order[0] != a.lookup(fp) {
			t.Fatalf("lookupN(%#x)[0] = %d, lookup = %d — owner must lead", fp, order[0], a.lookup(fp))
		}
		seen := map[int]bool{}
		for _, r := range order {
			if r < 0 || r > 3 || seen[r] {
				t.Fatalf("lookupN(%#x) = %v — out of range or duplicated", fp, order)
			}
			seen[r] = true
		}
		// Deterministic: an independently built ring produces the same order.
		if other := b.lookupN(fp, nil, 4); !reflect.DeepEqual(order, other) {
			t.Fatalf("rings disagree on %#x: %v vs %v", fp, order, other)
		}
		// n past the replica count clamps; a short n truncates the same order.
		if over := a.lookupN(fp, nil, 99); !reflect.DeepEqual(order, over) {
			t.Fatalf("lookupN(%#x, 99) = %v, want clamped %v", fp, over, order)
		}
		if two := a.lookupN(fp, nil, 2); !reflect.DeepEqual(order[:2], two) {
			t.Fatalf("lookupN(%#x, 2) = %v, want prefix of %v", fp, two, order)
		}
	}
}
