package trace

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

func req(o, n uint32, seq bool) storage.Request {
	return storage.Request{
		Page:       storage.PageID{Object: storage.ObjectID(o), Page: storage.PageNum(n)},
		Sequential: seq,
	}
}

// refProcess is Process as a per-object map of offset slices: each object's
// offsets deduplicated and sorted, then flattened and sorted again.
func refProcess(reqs []storage.Request) []storage.PageID {
	seen := make(map[storage.PageID]struct{})
	per := make(map[storage.ObjectID][]storage.PageNum)
	for _, r := range reqs {
		if r.Sequential {
			continue
		}
		if _, dup := seen[r.Page]; dup {
			continue
		}
		seen[r.Page] = struct{}{}
		per[r.Page.Object] = append(per[r.Page.Object], r.Page.Page)
	}
	n := 0
	for id := range per {
		p := per[id]
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
		n += len(p)
	}
	out := make([]storage.PageID, 0, n)
	for id, pages := range per {
		for _, pg := range pages {
			out = append(out, storage.PageID{Object: id, Page: pg})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// object returns one object's offsets from a processed trace, in order.
func object(pages []storage.PageID, id storage.ObjectID) []storage.PageNum {
	var out []storage.PageNum
	for _, p := range pages {
		if p.Object == id {
			out = append(out, p.Page)
		}
	}
	return out
}

func TestProcessStripsSequential(t *testing.T) {
	p := Process([]storage.Request{
		req(1, 0, true), req(1, 1, true), req(2, 5, false), req(1, 2, true),
	})
	if len(p) != 1 {
		t.Fatalf("len = %d, want 1", len(p))
	}
	if len(object(p, 1)) != 0 {
		t.Fatal("sequential pages leaked into trace")
	}
	if got := object(p, 2); len(got) != 1 || got[0] != 5 {
		t.Fatalf("object 2 = %v", got)
	}
}

func TestProcessDeduplicates(t *testing.T) {
	// Sibling-leaf pattern: the root path (page 0) repeats per probe.
	p := Process([]storage.Request{
		req(3, 0, false), req(3, 7, false),
		req(3, 0, false), req(3, 8, false),
		req(3, 0, false), req(3, 7, false),
	})
	if got := object(p, 3); len(got) != 3 {
		t.Fatalf("dedup failed: %v", got)
	}
}

func TestProcessSortsByOffset(t *testing.T) {
	p := Process([]storage.Request{
		req(1, 9, false), req(1, 2, false), req(1, 5, false), req(1, 1, false),
	})
	got := object(p, 1)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("trace not sorted: %v", got)
		}
	}
}

// TestProcessSegregatesPerObject: each object's pages are one contiguous
// run of the trace.
func TestProcessSegregatesPerObject(t *testing.T) {
	p := Process([]storage.Request{
		req(1, 3, false), req(2, 3, false), req(1, 4, false),
	})
	runs := 0
	for i := range p {
		if i == 0 || p[i].Object != p[i-1].Object {
			runs++
		}
	}
	if runs != 2 {
		t.Fatalf("trace %v has %d object runs, want 2", p, runs)
	}
	if len(object(p, 1)) != 2 || len(object(p, 2)) != 1 {
		t.Fatal("segregation wrong")
	}
}

func TestPagesFlattensSorted(t *testing.T) {
	pages := Process([]storage.Request{
		req(2, 1, false), req(1, 9, false), req(1, 2, false),
	})
	if len(pages) != 3 {
		t.Fatalf("Pages = %v", pages)
	}
	for i := 1; i < len(pages); i++ {
		if !pages[i-1].Less(pages[i]) {
			t.Fatalf("Pages not sorted: %v", pages)
		}
	}
}

func TestSeqRequests(t *testing.T) {
	reqs := []storage.Request{
		req(1, 0, true), req(1, 1, true),
		req(2, 5, false), req(2, 5, false), req(2, 6, false),
	}
	seq := SeqRequests(reqs)
	if seq != 2 || len(reqs)-seq != 3 || len(Process(reqs)) != 2 {
		t.Fatalf("sequential = %d, non-sequential = %d (%d distinct)", seq, len(reqs)-seq, len(Process(reqs)))
	}
}

func TestJaccardBasics(t *testing.T) {
	a := []storage.PageID{{Object: 1, Page: 1}, {Object: 1, Page: 2}}
	b := []storage.PageID{{Object: 1, Page: 2}, {Object: 1, Page: 3}}
	if j := Jaccard(a, b); math.Abs(j-1.0/3) > 1e-12 {
		t.Fatalf("Jaccard = %f, want 1/3", j)
	}
	if Jaccard(a, a) != 1 {
		t.Fatal("self-Jaccard != 1")
	}
	if Jaccard(nil, nil) != 1 {
		t.Fatal("empty-empty Jaccard != 1")
	}
	if Jaccard(a, nil) != 0 {
		t.Fatal("disjoint Jaccard != 0")
	}
	if Intersection(a, b) != 1 {
		t.Fatal("Intersection wrong")
	}
}

// Property: Jaccard is symmetric, bounded to [0,1], and 1 iff sets are equal.
func TestJaccardProperties(t *testing.T) {
	mkSet := func(r *sim.Rand, n int) []storage.PageID {
		reqs := make([]storage.Request, n)
		for i := range reqs {
			reqs[i] = req(1, uint32(r.Intn(30)), false)
		}
		return Process(reqs)
	}
	if err := quick.Check(func(seed uint64, na, nb uint8) bool {
		r := sim.NewRand(seed)
		a := mkSet(r, int(na%40))
		b := mkSet(r, int(nb%40))
		j1, j2 := Jaccard(a, b), Jaccard(b, a)
		if j1 != j2 || j1 < 0 || j1 > 1 {
			return false
		}
		if j1 == 1 {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Process equals refProcess on any stream, empty and
// all-sequential ones included; its output is sorted, duplicate-free,
// exactly sized, and holds exactly the distinct non-sequential pages of the
// input. Distinct's sequential half is the same function: on the stream
// with every flag inverted it equals refProcess too.
func TestProcessInvariants(t *testing.T) {
	check := func(reqs []storage.Request) bool {
		want := map[storage.PageID]bool{}
		flipped := make([]storage.Request, len(reqs))
		for i, r := range reqs {
			if !r.Sequential {
				want[r.Page] = true
			}
			flipped[i] = r
			flipped[i].Sequential = !r.Sequential
		}
		p := Process(reqs)
		if !slices.Equal(p, refProcess(reqs)) || len(p) != cap(p) || len(p) != len(want) {
			return false
		}
		for i, pg := range p {
			if i > 0 && !p[i-1].Less(pg) {
				return false
			}
			if !want[pg] {
				return false
			}
		}
		seq := Distinct(flipped, true)
		return slices.Equal(seq, refProcess(reqs)) && len(seq) == cap(seq)
	}
	for _, reqs := range [][]storage.Request{nil, {}, {req(1, 0, true), req(1, 1, true)}} {
		if !check(reqs) {
			t.Fatalf("Process(%v) = %v, reference %v", reqs, Process(reqs), refProcess(reqs))
		}
	}
	if err := quick.Check(func(seed uint64, n uint8) bool {
		r := sim.NewRand(seed)
		allSeq := r.Intn(4) == 0
		reqs := make([]storage.Request, n)
		for i := range reqs {
			reqs[i] = req(uint32(1+r.Intn(3)), uint32(r.Intn(20)), allSeq || r.Intn(2) == 0)
		}
		return check(reqs)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
