package storage

import (
	"math/rand"
	"testing"
)

// TestPageIndexMatchesMap drives random Put/Get/Delete strings against a Go
// map. The key universe holds the zero PageID, pages a few cells apart and
// pages spread up to 2¹⁶ within one object, so rows grow both a doubling at a
// time and many doublings at once. Odd seeds first put one page of every
// object from the highest ID down, so later rows exist before earlier ones.
func TestPageIndexMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(16)
		x := NewPageIndex(capacity)
		ref := map[PageID]int32{}
		universe := make([]PageID, 3*capacity)
		for i := range universe {
			universe[i] = PageID{Object: ObjectID(r.Intn(6)), Page: PageNum(r.Intn(4 * capacity))}
			if i%3 == 0 {
				universe[i] = PageID{Object: 2, Page: PageNum(r.Intn(1 << 16))}
			}
		}
		universe[0] = PageID{}
		check := func(step int) {
			t.Helper()
			if x.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len %d, map has %d", seed, step, x.Len(), len(ref))
			}
			for _, q := range universe {
				got, ok := x.Get(q)
				want, present := ref[q]
				if ok != present || (ok && got != want) {
					t.Fatalf("seed %d step %d: Get(%v) = %d,%v, map has %d,%v", seed, step, q, got, ok, want, present)
				}
			}
		}
		if seed%2 == 1 {
			for obj := 5; obj >= 0 && len(ref) < capacity; obj-- {
				p := PageID{Object: ObjectID(obj), Page: PageNum(r.Intn(4 * capacity))}
				x.Put(p, int32(obj))
				ref[p] = int32(obj)
				check(-1)
			}
		}
		for step := 0; step < 400; step++ {
			p := universe[r.Intn(len(universe))]
			switch op := r.Intn(100); {
			case op < 45:
				if _, present := ref[p]; !present && len(ref) == capacity {
					continue // the owner evicts first; over capacity is tested below
				}
				slot := int32(r.Intn(1 << 20))
				x.Put(p, slot)
				ref[p] = slot
			case op < 85:
				x.Delete(p)
				delete(ref, p)
			}
			check(step)
		}
	}
}

func TestPageIndexOverCapacityPanics(t *testing.T) {
	x := NewPageIndex(2)
	x.Put(PageID{1, 1}, 0)
	x.Put(PageID{1, 2}, 1)
	x.Put(PageID{1, 1}, 5) // replacing is not growth
	defer func() {
		if recover() == nil {
			t.Fatal("a third page in an index of two did not panic")
		}
	}()
	x.Put(PageID{1, 3}, 2)
}

// TestPageIndexAllocsOnlyToGrow: once the rows cover the pages an owner
// uses, Put, Get and Delete allocate nothing; only a page past its row does.
func TestPageIndexAllocsOnlyToGrow(t *testing.T) {
	pages := make([]PageID, 64)
	for i := range pages {
		pages[i] = PageID{Object: ObjectID(i % 4), Page: PageNum(i * 997 % 5000)}
	}
	x := NewPageIndex(len(pages))
	for i, p := range pages {
		x.Put(p, int32(i))
	}
	for _, p := range pages {
		x.Delete(p)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i, p := range pages {
			x.Put(p, int32(i))
		}
		for _, p := range pages {
			x.Get(p)
		}
		for _, p := range pages {
			x.Delete(p)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per pass inside grown rows, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { NewPageIndex(1).Put(PageID{2, 100}, 0) }); allocs < 2 {
		t.Fatalf("a put past every row allocated %.1f times: growth is not being counted", allocs)
	}
}
