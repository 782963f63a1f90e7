package storage

import (
	"math/rand"
	"testing"
)

// TestPageIndexMatchesMap drives random Put/Get/Delete strings against
// a Go map. The tables are a few cells long, so probe runs wrap past the last
// cell and grow to most of the table, and the key universe includes the zero
// PageID, whose packed key equals an empty cell's.
func TestPageIndexMatchesMap(t *testing.T) {
	wrapped := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(16)
		x := NewPageIndex(capacity)
		ref := map[PageID]int32{}
		universe := make([]PageID, 3*capacity)
		for i := range universe {
			universe[i] = PageID{Object: ObjectID(r.Intn(3)), Page: PageNum(r.Intn(4 * capacity))}
		}
		universe[0] = PageID{}
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
			for i, c := range x.cells {
				if c.ref != 0 && i < x.home(c.key) {
					wrapped++
				}
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no probe run ever wrapped around the table")
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
