package buffer

import (
	"testing"
	"testing/quick"

	"github.com/pythia-db/pythia/internal/storage"
)

func pg(o, n uint32) storage.PageID {
	return storage.PageID{Object: storage.ObjectID(o), Page: storage.PageNum(n)}
}

func TestHitMissAccounting(t *testing.T) {
	p := New(4, Clock)
	if p.Get(pg(1, 0)) {
		t.Fatal("hit on empty pool")
	}
	p.Insert(pg(1, 0), false)
	if !p.Get(pg(1, 0)) {
		t.Fatal("miss after insert")
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if r := s.HitRatio(); r != 0.5 {
		t.Fatalf("HitRatio = %f", r)
	}
}

func TestCapacityAndEviction(t *testing.T) {
	for _, pol := range []Policy{Clock, LRU, MRU} {
		p := New(3, pol)
		for i := uint32(0); i < 5; i++ {
			if !p.Insert(pg(1, i), false) {
				t.Fatalf("%v: insert %d failed", pol, i)
			}
		}
		if p.Len() != 3 {
			t.Fatalf("%v: Len = %d, want 3", pol, p.Len())
		}
		if p.Stats().Evictions != 2 {
			t.Fatalf("%v: evictions = %d, want 2", pol, p.Stats().Evictions)
		}
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	p := New(3, LRU)
	p.Insert(pg(1, 0), false)
	p.Insert(pg(1, 1), false)
	p.Insert(pg(1, 2), false)
	p.Get(pg(1, 0)) // page 0 is now most recent; page 1 is least recent
	p.Insert(pg(1, 3), false)
	if p.Contains(pg(1, 1)) {
		t.Fatal("LRU kept the least recently used page")
	}
	if !p.Contains(pg(1, 0)) || !p.Contains(pg(1, 2)) {
		t.Fatal("LRU evicted the wrong page")
	}
}

func TestMRUEvictsMostRecent(t *testing.T) {
	p := New(3, MRU)
	p.Insert(pg(1, 0), false)
	p.Insert(pg(1, 1), false)
	p.Insert(pg(1, 2), false)
	p.Get(pg(1, 0)) // page 0 is most recently used
	p.Insert(pg(1, 3), false)
	if p.Contains(pg(1, 0)) {
		t.Fatal("MRU kept the most recently used page")
	}
	if !p.Contains(pg(1, 1)) || !p.Contains(pg(1, 2)) {
		t.Fatal("MRU evicted the wrong page")
	}
}

func TestClockSecondChance(t *testing.T) {
	p := New(3, Clock)
	p.Insert(pg(1, 0), false)
	p.Insert(pg(1, 1), false)
	p.Insert(pg(1, 2), false)
	// Touch page 0 so its ref bit is set again; pages 1 and 2 have ref bits
	// from insertion. First sweep clears bits; page inserted order 0,1,2 so
	// the hand clears 0,1,2 then evicts 0? Touching keeps ref set, so after
	// one clearing pass the first frame encountered with a clear bit is the
	// victim. Ensure the recently touched page survives longer than one of
	// the untouched ones.
	p.Get(pg(1, 0))
	p.Insert(pg(1, 3), false)
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	if !p.Contains(pg(1, 3)) {
		t.Fatal("new page not resident")
	}
	// Clock approximates LRU: with all ref bits initially set the hand
	// clears 0, then 1, then 2, wraps, and evicts 0 — unless 0 was re-set
	// by the Get, in which case 1 goes. Either way exactly one of {0,1,2}
	// was evicted.
	resident := 0
	for _, q := range []storage.PageID{pg(1, 0), pg(1, 1), pg(1, 2)} {
		if p.Contains(q) {
			resident++
		}
	}
	if resident != 2 {
		t.Fatalf("resident old pages = %d, want 2", resident)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	for _, pol := range []Policy{Clock, LRU, MRU} {
		p := New(2, pol)
		p.Insert(pg(1, 0), false)
		p.Insert(pg(1, 1), false)
		if !p.Pin(pg(1, 0)) || !p.Pin(pg(1, 1)) {
			t.Fatalf("%v: pin failed", pol)
		}
		if p.Insert(pg(1, 2), false) {
			t.Fatalf("%v: insert succeeded with all frames pinned", pol)
		}
		if p.Stats().FailedInserts != 1 {
			t.Fatalf("%v: FailedInserts = %d", pol, p.Stats().FailedInserts)
		}
		p.Unpin(pg(1, 0))
		if !p.Insert(pg(1, 2), false) {
			t.Fatalf("%v: insert failed after unpin", pol)
		}
		if p.Contains(pg(1, 0)) {
			t.Fatalf("%v: unpinned page not chosen as victim", pol)
		}
		if !p.Contains(pg(1, 1)) {
			t.Fatalf("%v: pinned page was evicted", pol)
		}
	}
}

func TestPinCountsNest(t *testing.T) {
	p := New(1, Clock)
	p.Insert(pg(1, 0), false)
	p.Pin(pg(1, 0))
	p.Pin(pg(1, 0))
	if p.Pinned(pg(1, 0)) != 2 {
		t.Fatalf("Pinned = %d", p.Pinned(pg(1, 0)))
	}
	p.Unpin(pg(1, 0))
	if p.Insert(pg(1, 1), false) {
		t.Fatal("still-pinned page evicted")
	}
	p.Unpin(pg(1, 0))
	if !p.Insert(pg(1, 1), false) {
		t.Fatal("fully unpinned page not evictable")
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("PinnedCount = %d", p.PinnedCount())
	}
}

func TestUnpinErrorsPanic(t *testing.T) {
	p := New(1, Clock)
	p.Insert(pg(1, 0), false)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Unpin of unpinned page did not panic")
			}
		}()
		p.Unpin(pg(1, 0))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Unpin of absent page did not panic")
			}
		}()
		p.Unpin(pg(9, 9))
	}()
}

func TestPinAbsentPage(t *testing.T) {
	p := New(1, Clock)
	if p.Pin(pg(1, 0)) {
		t.Fatal("Pin of absent page succeeded")
	}
}

func TestPrefetchAccounting(t *testing.T) {
	p := New(4, Clock)
	p.Insert(pg(1, 0), true)
	p.Insert(pg(1, 1), true)
	p.Get(pg(1, 0)) // useful prefetch
	p.Get(pg(1, 0)) // second hit is a plain hit, not another prefetch hit
	s := p.Stats()
	if s.PrefetchedIn != 2 {
		t.Fatalf("PrefetchedIn = %d", s.PrefetchedIn)
	}
	if s.PrefetchHits != 1 {
		t.Fatalf("PrefetchHits = %d", s.PrefetchHits)
	}
}

func TestInsertExistingBumpsUsage(t *testing.T) {
	p := New(2, LRU)
	p.Insert(pg(1, 0), false)
	p.Insert(pg(1, 1), false)
	p.Insert(pg(1, 0), false) // re-insert should act like a touch
	p.Insert(pg(1, 2), false)
	if p.Contains(pg(1, 1)) {
		t.Fatal("re-insert did not refresh recency")
	}
	if !p.Contains(pg(1, 0)) {
		t.Fatal("refreshed page evicted")
	}
	if p.Stats().Inserts != 3 {
		t.Fatalf("Inserts = %d, want 3 (re-insert is not a new insert)", p.Stats().Inserts)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, Clock)
}

// Property: under any request mix, residency never exceeds capacity and a
// Get immediately after a successful Insert always hits.
func TestPoolInvariants(t *testing.T) {
	for _, pol := range []Policy{Clock, LRU, MRU} {
		pol := pol
		if err := quick.Check(func(ops []uint16) bool {
			p := New(8, pol)
			for _, op := range ops {
				page := pg(1, uint32(op%64))
				switch op % 3 {
				case 0:
					if p.Insert(page, op%5 == 0) && !p.Get(page) {
						return false
					}
				case 1:
					p.Get(page)
				case 2:
					if p.Contains(page) {
						p.Pin(page)
						p.Unpin(page)
					}
				}
				if p.Len() > p.Cap() {
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Clock.String() != "clock" || LRU.String() != "lru" || MRU.String() != "mru" {
		t.Fatal("policy names wrong")
	}
	if Policy(42).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}
