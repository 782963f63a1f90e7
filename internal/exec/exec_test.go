package exec

import (
	"math"
	"slices"
	"testing"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/index"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/storage"
)

func starDB() *catalog.Database {
	db := catalog.NewDatabase()
	db.AddRelation("sales", 2000, 10, []catalog.Column{
		{Name: "s_sk", Gen: catalog.Serial{}},
		{Name: "s_item_fk", Gen: catalog.Uniform{Lo: 0, Hi: 500, Seed: 1}},
		{Name: "s_amount", Gen: catalog.Uniform{Lo: 0, Hi: 1000, Seed: 3}},
	})
	item := db.AddRelation("item", 500, 10, []catalog.Column{
		{Name: "i_sk", Gen: catalog.Serial{}},
		{Name: "i_cat", Gen: catalog.Uniform{Lo: 0, Hi: 10, Seed: 4}},
	})
	db.BuildIndex(item, "i_sk", index.Config{LeafCap: 8, Fanout: 4})
	return db
}

func TestSeqScanCountsAndRequests(t *testing.T) {
	db := starDB()
	pl := plan.NewPlanner(db)
	root := pl.MustPlan(plan.Query{Fact: "sales"})
	res := Run(root)
	if res.Rows != 2000 {
		t.Fatalf("Rows = %d, want 2000", res.Rows)
	}
	if len(res.Requests) != 200 {
		t.Fatalf("Requests = %d, want 200 (one per page)", len(res.Requests))
	}
	var lastPage storage.PageNum
	for i, r := range res.Requests {
		if !r.Sequential {
			t.Fatalf("seq scan request %d not marked sequential", i)
		}
		if i > 0 && r.Page.Page != lastPage+1 {
			t.Fatalf("seq scan pages out of order at %d: %v", i, r.Page)
		}
		lastPage = r.Page.Page
	}
	// Tuples accounting: each request after the first carries 10 tuples.
	total := res.TrailingTuples
	for _, r := range res.Requests {
		total += int(r.Tuples)
	}
	if total != 2000 {
		t.Fatalf("tuple accounting lost rows: %d", total)
	}
	if len(res.Requests) != cap(res.Requests) {
		t.Fatalf("stream of %d requests holds capacity for %d", len(res.Requests), cap(res.Requests))
	}
}

func TestSeqScanPredicateFilters(t *testing.T) {
	db := starDB()
	pl := plan.NewPlanner(db)
	root := pl.MustPlan(plan.Query{
		Fact:      "sales",
		FactPreds: []plan.Pred{plan.Between("s_amount", 0, 99)},
	})
	res := Run(root)
	want := int64(0)
	rel := db.Relation("sales")
	for row := int64(0); row < rel.Rows; row++ {
		if v := rel.Value("s_amount", row); v < 100 {
			want++
		}
	}
	if res.Rows != want {
		t.Fatalf("Rows = %d, want %d", res.Rows, want)
	}
	// Filtering must not change the page requests of the scan.
	if len(res.Requests) != 200 {
		t.Fatalf("Requests = %d, want 200", len(res.Requests))
	}
}

func TestNestedLoopProbesIndexAndHeap(t *testing.T) {
	db := starDB()
	pl := plan.NewPlanner(db)
	root := pl.MustPlan(plan.Query{
		Fact:      "sales",
		FactPreds: []plan.Pred{plan.Between("s_amount", 0, 19)}, // ~2%
		Dims:      []plan.DimJoin{{Dim: "item", FactFK: "s_item_fk", DimKey: "i_sk", ForceIndex: true}},
	})
	res := Run(root)
	if res.Rows == 0 {
		t.Fatal("join produced no rows")
	}
	idxObj := db.Relation("item").IndexOn("i_sk").Tree.Object().ID
	heapObj := db.Relation("item").Heap.ID
	var idxReqs, heapReqs int
	for _, r := range res.Requests {
		switch r.Page.Object {
		case idxObj:
			if r.Sequential {
				t.Fatal("index page marked sequential")
			}
			idxReqs++
		case heapObj:
			if r.Sequential {
				t.Fatal("probed heap page marked sequential")
			}
			heapReqs++
		}
	}
	if idxReqs == 0 || heapReqs == 0 {
		t.Fatalf("probe requests: idx=%d heap=%d", idxReqs, heapReqs)
	}
	// Every probe pays the full descent; with FK keys unique, heap fetches
	// equal output rows.
	if int64(heapReqs) != res.Rows {
		t.Fatalf("heap fetches = %d, rows = %d", heapReqs, res.Rows)
	}
}

func TestHashJoinEquivalentToNestedLoop(t *testing.T) {
	db := starDB()
	pl := plan.NewPlanner(db)
	base := plan.Query{
		Fact:      "sales",
		FactPreds: []plan.Pred{plan.Between("s_amount", 0, 199)},
		Dims: []plan.DimJoin{{
			Dim: "item", FactFK: "s_item_fk", DimKey: "i_sk",
			Preds: []plan.Pred{plan.Between("i_cat", 0, 4)},
		}},
	}
	nlj := base
	nlj.Dims[0].ForceIndex = true
	hj := base
	hj.Dims = []plan.DimJoin{{
		Dim: "item", FactFK: "s_item_fk", DimKey: "i_sk",
		Preds:     []plan.Pred{plan.Between("i_cat", 0, 4)},
		ForceHash: true,
	}}
	rNLJ := Run(pl.MustPlan(nlj))
	rHJ := Run(pl.MustPlan(hj))
	if rNLJ.Rows != rHJ.Rows {
		t.Fatalf("join strategies disagree: NLJ=%d HJ=%d", rNLJ.Rows, rHJ.Rows)
	}
	// Hash join's only page requests are the two sequential scans.
	for _, r := range rHJ.Requests {
		if !r.Sequential {
			t.Fatalf("hash join issued a non-sequential request: %v", r.Page)
		}
	}
	// Build side scanned exactly once.
	itemPages := int(db.Relation("item").Heap.Pages)
	factPages := int(db.Relation("sales").Heap.Pages)
	if len(rHJ.Requests) != itemPages+factPages {
		t.Fatalf("hash join requests = %d, want %d", len(rHJ.Requests), itemPages+factPages)
	}
}

func TestHashBuildRunsBeforeProbe(t *testing.T) {
	db := starDB()
	pl := plan.NewPlanner(db)
	q := plan.Query{
		Fact: "sales",
		Dims: []plan.DimJoin{{Dim: "item", FactFK: "s_item_fk", DimKey: "i_sk", ForceHash: true}},
	}
	res := Run(pl.MustPlan(q))
	itemObj := db.Relation("item").Heap.ID
	salesObj := db.Relation("sales").Heap.ID
	sawSales := false
	for _, r := range res.Requests {
		if r.Page.Object == salesObj {
			sawSales = true
		}
		if r.Page.Object == itemObj && sawSales {
			t.Fatal("build-side pages requested after probe began")
		}
	}
}

func TestDimensionPredicateAppliedAfterProbe(t *testing.T) {
	db := starDB()
	pl := plan.NewPlanner(db)
	unfiltered := plan.Query{
		Fact:      "sales",
		FactPreds: []plan.Pred{plan.Between("s_amount", 0, 99)},
		Dims:      []plan.DimJoin{{Dim: "item", FactFK: "s_item_fk", DimKey: "i_sk", ForceIndex: true}},
	}
	filtered := unfiltered
	filtered.Dims = []plan.DimJoin{{
		Dim: "item", FactFK: "s_item_fk", DimKey: "i_sk", ForceIndex: true,
		Preds: []plan.Pred{plan.Eq("i_cat", 3)},
	}}
	ru := Run(pl.MustPlan(unfiltered))
	rf := Run(pl.MustPlan(filtered))
	if rf.Rows >= ru.Rows {
		t.Fatalf("dimension filter did not reduce rows: %d vs %d", rf.Rows, ru.Rows)
	}
	// Page requests are identical: the filter runs after the heap fetch.
	if len(rf.Requests) != len(ru.Requests) {
		t.Fatalf("dimension filter changed request count: %d vs %d", len(rf.Requests), len(ru.Requests))
	}
}

func TestDeterministicExecution(t *testing.T) {
	db := starDB()
	pl := plan.NewPlanner(db)
	q := plan.Query{
		Fact:      "sales",
		FactPreds: []plan.Pred{plan.Between("s_amount", 0, 49)},
		Dims:      []plan.DimJoin{{Dim: "item", FactFK: "s_item_fk", DimKey: "i_sk", ForceIndex: true}},
	}
	a := Run(pl.MustPlan(q))
	b := Run(pl.MustPlan(q))
	if a.Rows != b.Rows || len(a.Requests) != len(b.Requests) {
		t.Fatal("re-execution differs")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs between runs", i)
		}
	}
}

func TestAmbiguousColumnPanics(t *testing.T) {
	db := catalog.NewDatabase()
	db.AddRelation("a", 10, 10, []catalog.Column{{Name: "x", Gen: catalog.Serial{}}})
	b := db.AddRelation("b", 10, 10, []catalog.Column{{Name: "x", Gen: catalog.Serial{}}})
	db.BuildIndex(b, "x", index.Config{})
	pl := plan.NewPlanner(db)
	root := pl.MustPlan(plan.Query{
		Fact: "a",
		Dims: []plan.DimJoin{{Dim: "b", FactFK: "x", DimKey: "x", ForceIndex: true}},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("ambiguous column did not panic")
		}
	}()
	Run(root)
}

// TestTupleCountOverflowPanics: a request carries its tuple count in 32
// bits; the largest count that fits is kept exactly and one more panics
// rather than wrapping.
func TestTupleCountOverflowPanics(t *testing.T) {
	e := &executor{tuples: math.MaxInt32}
	e.request(storage.PageID{Object: 1}, false)
	if got := e.requests[0].Tuples; got != math.MaxInt32 {
		t.Fatalf("Tuples = %d, want %d", got, math.MaxInt32)
	}
	e.tuples = math.MaxInt32 + 1
	defer func() {
		if recover() == nil {
			t.Fatal("a tuple count past int32 did not panic")
		}
	}()
	e.request(storage.PageID{Object: 1}, false)
}

// TestGroupRowsPicksAddressing: build keys spanning fewer values than the
// bound are addressed directly and others through the map, extreme keys
// included, and both give each key's rows in scan order and absent keys
// none.
func TestGroupRowsPicksAddressing(t *testing.T) {
	for _, c := range []struct {
		keys    []int64
		maxSpan int64
		direct  bool
	}{
		{[]int64{5, 3, 5, 9, 3, 5}, 12, true},
		{[]int64{5, 3, 5, 9, 3, 5}, 6, false},
		{[]int64{math.MinInt64, math.MaxInt64, -1, math.MinInt64}, 8, false},
		{[]int64{-7, -7, -7}, 1, true},
		{nil, 8, false},
	} {
		rows := make([]int64, len(c.keys))
		want := map[int64][]int64{}
		for i, k := range c.keys {
			rows[i] = int64(100 + i)
			want[k] = append(want[k], rows[i])
		}
		g := groupRows(c.keys, rows, c.maxSpan)
		if direct := g.group == nil; direct != c.direct {
			t.Errorf("keys %v, span bound %d: direct addressing %v, want %v", c.keys, c.maxSpan, direct, c.direct)
		}
		probes := append([]int64{math.MinInt64, math.MinInt64 + 1, -8, -7, -1, 0, 2, 3, 4, 5, 9, 10, math.MaxInt64 - 1, math.MaxInt64}, c.keys...)
		for _, k := range probes {
			if got := g.lookup(k); !slices.Equal(got, want[k]) {
				t.Errorf("keys %v: lookup(%d) = %v, want %v", c.keys, k, got, want[k])
			}
		}
	}
}
