package oscache

import (
	"testing"

	"github.com/pythia-db/pythia/internal/storage"
)

func pg(o, n uint32) storage.PageID {
	return storage.PageID{Object: storage.ObjectID(o), Page: storage.PageNum(n)}
}

func TestColdReadMissesAndPopulates(t *testing.T) {
	c := New(100, 0)
	s := c.NewStream()
	hit, ra := c.Read(s, pg(1, 5), 1000)
	if hit {
		t.Fatal("cold read hit")
	}
	if len(ra) != 0 {
		t.Fatal("non-sequential first read triggered readahead")
	}
	hit, _ = c.Read(c.NewStream(), pg(1, 5), 1000)
	if !hit {
		t.Fatal("second read of same page missed")
	}
}

func TestSequentialRunTriggersReadahead(t *testing.T) {
	c := New(1000, 8)
	s := c.NewStream()
	c.Read(s, pg(1, 0), 1000)
	hit, ra := c.Read(s, pg(1, 1), 1000)
	if hit {
		t.Fatal("page 1 should miss (window starts small)")
	}
	if len(ra) == 0 {
		t.Fatal("sequential read did not trigger readahead")
	}
	// Continue the run: window doubles and subsequent reads hit the cache.
	hits := 0
	for n := uint32(2); n < 64; n++ {
		h, _ := c.Read(s, pg(1, n), 1000)
		if h {
			hits++
		}
	}
	if hits < 50 {
		t.Fatalf("sequential scan only hit %d/62 pages; readahead ineffective", hits)
	}
}

func TestReadaheadWindowDoublesUpToMax(t *testing.T) {
	c := New(10000, 8)
	s := c.NewStream()
	c.Read(s, pg(1, 0), 10000)
	sizes := []int{}
	for n := uint32(1); n <= 6; n++ {
		// Drop the next pages so each readahead burst is observable.
		_, ra := c.Read(s, pg(1, n), 10000)
		if len(ra) > 0 {
			sizes = append(sizes, len(ra))
		}
	}
	if len(sizes) == 0 {
		t.Fatal("no readahead bursts observed")
	}
	if sizes[0] != 2 {
		t.Fatalf("first burst = %d pages, want 2 (window doubled from 1)", sizes[0])
	}
	for _, sz := range sizes {
		if sz > 8 {
			t.Fatalf("burst %d exceeded max window 8", sz)
		}
	}
}

func TestRandomReadsNoReadahead(t *testing.T) {
	c := New(1000, 8)
	s := c.NewStream()
	order := []uint32{10, 3, 77, 20, 54, 9}
	for _, n := range order {
		hit, ra := c.Read(s, pg(1, n), 1000)
		if hit {
			t.Fatalf("random cold read of page %d hit", n)
		}
		if len(ra) != 0 {
			t.Fatalf("random read of page %d triggered readahead", n)
		}
	}
	if st := c.Stats(); st.ReadaheadPages != 0 || st.Misses != uint64(len(order)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReadaheadStopsAtObjectEnd(t *testing.T) {
	c := New(1000, 8)
	s := c.NewStream()
	c.Read(s, pg(1, 7), 10)
	_, ra := c.Read(s, pg(1, 8), 10)
	for _, p := range ra {
		if p.Page >= 10 {
			t.Fatalf("readahead past end of object: %v", p)
		}
	}
	_, ra = c.Read(s, pg(1, 9), 10)
	if len(ra) != 0 {
		t.Fatalf("readahead at last page returned %v", ra)
	}
}

func TestPerStreamDetection(t *testing.T) {
	c := New(1000, 8)
	a, b := c.NewStream(), c.NewStream()
	// Interleave two readers on different objects; each keeps its own run.
	c.Read(a, pg(1, 0), 100)
	c.Read(b, pg(2, 50), 100)
	_, ra := c.Read(a, pg(1, 1), 100)
	if len(ra) == 0 {
		t.Fatal("stream a's run broken by stream b's access")
	}
	_, rb := c.Read(b, pg(2, 51), 100)
	if len(rb) == 0 {
		t.Fatal("stream b's run broken by stream a's access")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3, 8)
	s := c.NewStream()
	c.Read(s, pg(1, 10), 100)
	c.Read(s, pg(1, 20), 100)
	c.Read(s, pg(1, 30), 100)
	// Touch page 10 so page 20 is least recent.
	c.Read(c.NewStream(), pg(1, 10), 100)
	c.Read(c.NewStream(), pg(1, 40), 100)
	if c.Contains(pg(1, 20)) {
		t.Fatal("LRU victim not evicted")
	}
	if !c.Contains(pg(1, 10)) {
		t.Fatal("recently used page evicted")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("evictions not counted")
	}
}

func TestDrop(t *testing.T) {
	c := New(10, 8)
	s := c.NewStream()
	c.Read(s, pg(1, 0), 100)
	c.Drop(pg(1, 0))
	if c.Contains(pg(1, 0)) || c.Len() != 0 {
		t.Fatal("Drop did not remove page")
	}
	c.Drop(pg(1, 0)) // dropping absent page is a no-op
	if hit, _ := c.Read(c.NewStream(), pg(1, 0), 100); hit {
		t.Fatal("page survived Drop")
	}
}

// TestReadaheadReprobesAfterRemoval holds the readahead watermark to its
// guard: a page of a stream's window that leaves the cache between two
// sequential reads — evicted by another reader or dropped — must
// come back as readahead on the next read, not be skipped as already checked.
func TestReadaheadReprobesAfterRemoval(t *testing.T) {
	target := pg(1, 5)
	for _, tc := range []struct {
		name   string
		remove func(c *Cache)
	}{
		{"evict", func(c *Cache) {
			other := c.NewStream()
			for n := uint32(0); c.Contains(target); n += 2 { // stride 2: never sequential
				c.Read(other, pg(2, n), 1000)
			}
		}},
		{"drop", func(c *Cache) { c.Drop(target) }},
	} {
		c := New(16, 0)
		s := c.NewStream()
		for n := uint32(0); n < 3; n++ { // leaves pages 0-6 resident
			c.Read(s, pg(1, n), 1000)
		}
		tc.remove(c)
		if c.Contains(target) {
			t.Fatalf("%s: page %v still resident", tc.name, target)
		}
		_, ra := c.Read(s, pg(1, 3), 1000)
		found := false
		for _, p := range ra {
			found = found || p == target
		}
		if !found || !c.Contains(target) {
			t.Fatalf("%s: readahead %v after removing %v did not fetch it again", tc.name, ra, target)
		}
	}
}

func TestHitRatio(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("idle HitRatio != 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRatio() != 0.75 {
		t.Fatalf("HitRatio = %f", s.HitRatio())
	}
}

func TestBrokenRunRestartsWindow(t *testing.T) {
	c := New(10000, 16)
	s := c.NewStream()
	// Build a long run to grow the window.
	for n := uint32(0); n < 20; n++ {
		c.Read(s, pg(1, n), 10000)
	}
	// Jump breaks the run.
	_, ra := c.Read(s, pg(1, 500), 10000)
	if len(ra) != 0 {
		t.Fatal("jump read triggered readahead")
	}
	// Restarting sequentially begins with the minimal window again.
	_, ra = c.Read(s, pg(1, 501), 10000)
	if len(ra) != 2 {
		t.Fatalf("restarted run burst = %d, want 2", len(ra))
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, 0)
}
