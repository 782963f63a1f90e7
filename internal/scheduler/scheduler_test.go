package scheduler

import (
	"reflect"
	"testing"

	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

func pages(ns ...uint32) []storage.PageID {
	out := make([]storage.PageID, len(ns))
	for i, n := range ns {
		out[i] = storage.PageID{Object: 1, Page: storage.PageNum(n)}
	}
	return out
}

func preds(sets ...[]storage.PageID) []Prediction {
	out := make([]Prediction, len(sets))
	for i, s := range sets {
		out[i] = Prediction{Instance: &workload.Instance{}, Pages: s}
	}
	return out
}

func TestOrderIsPermutation(t *testing.T) {
	p := preds(pages(1, 2), pages(2, 3), pages(9), pages(1, 2, 3, 4))
	order := Order(p)
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	seen := map[int]bool{}
	for _, i := range order {
		if i < 0 || i >= 4 || seen[i] {
			t.Fatalf("not a permutation: %v", order)
		}
		seen[i] = true
	}
}

func TestOrderChainsSimilarQueries(t *testing.T) {
	// Two "clusters": {0,1} share pages, {2,3} share pages, no overlap
	// between clusters. A good schedule keeps clusters contiguous.
	p := preds(
		pages(1, 2, 3),
		pages(2, 3, 4),
		pages(100, 101, 102),
		pages(101, 102, 103),
	)
	order := Order(p)
	cluster := func(i int) int { return i / 2 }
	switches := 0
	for i := 1; i < len(order); i++ {
		if cluster(order[i]) != cluster(order[i-1]) {
			switches++
		}
	}
	if switches != 1 {
		t.Fatalf("clusters split: order %v (%d switches)", order, switches)
	}
	// The greedy chain overlap beats the worst interleaving.
	interleaved := []int{0, 2, 1, 3}
	if ChainOverlap(p, order) <= ChainOverlap(p, interleaved) {
		t.Fatalf("greedy chain (%f) not better than interleaved (%f)",
			ChainOverlap(p, order), ChainOverlap(p, interleaved))
	}
}

func TestOrderStartsFromLargestSet(t *testing.T) {
	p := preds(pages(1), pages(1, 2, 3, 4, 5), pages(2))
	if order := Order(p); order[0] != 1 {
		t.Fatalf("order %v should start at the largest prediction", order)
	}
}

func TestOrderDeterministic(t *testing.T) {
	p := preds(pages(1, 2), pages(3, 4), pages(5, 6))
	a := Order(p)
	b := Order(p)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("order not deterministic")
		}
	}
}

func TestOrderEdgeCases(t *testing.T) {
	if Order(nil) != nil {
		t.Fatal("empty order should be nil")
	}
	if got := Order(preds(pages(1))); len(got) != 1 || got[0] != 0 {
		t.Fatalf("singleton order = %v", got)
	}
	// Empty predictions still schedule (arbitrary but total).
	if got := Order(preds(nil, nil, nil)); len(got) != 3 {
		t.Fatalf("empty-prediction order = %v", got)
	}
}

func TestApply(t *testing.T) {
	a, b := &workload.Instance{}, &workload.Instance{}
	p := []Prediction{{Instance: a}, {Instance: b}}
	got := Apply(p, []int{1, 0})
	if got[0] != b || got[1] != a {
		t.Fatal("Apply order wrong")
	}
}

func TestChainOverlapBounds(t *testing.T) {
	p := preds(pages(1, 2), pages(1, 2))
	if ChainOverlap(p, []int{0, 1}) != 1 {
		t.Fatal("identical sets should chain at 1")
	}
	if ChainOverlap(p, []int{0}) != 0 {
		t.Fatal("single-entry chain should be 0")
	}
}

func TestOrderObservedAllEmptySets(t *testing.T) {
	// All-empty predicted sets: every pairwise Jaccard is 1 (empty == empty),
	// so the greedy chain reduces to index order — deterministic and total.
	order := Order(preds(nil, nil, nil, nil))
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("all-empty order = %v, want %v", order, want)
	}
}

func TestOrderObservedSinglePrediction(t *testing.T) {
	order := Order(preds(pages(5, 6)))
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("singleton order = %v", order)
	}
}

func TestOrderDuplicateSetsTieBreakDeterministic(t *testing.T) {
	// Three identical sets plus the (larger) starting set: every candidate
	// ties at the same similarity, and strict > comparison breaks ties
	// toward the lowest index — so the schedule is index order after the
	// start, on every run.
	dup := pages(1, 2, 3)
	p := preds(dup, pages(1, 2, 3, 4, 5), dup, dup)
	want := Order(p)
	if want[0] != 1 {
		t.Fatalf("schedule did not start from the largest set: %v", want)
	}
	if !reflect.DeepEqual(want[1:], []int{0, 2, 3}) {
		t.Fatalf("duplicate-set tie-break not index order: %v", want)
	}
	for run := 0; run < 50; run++ {
		if got := Order(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged: %v vs %v", run, got, want)
		}
	}
}
