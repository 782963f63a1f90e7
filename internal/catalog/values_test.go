package catalog_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/imdb"
	"github.com/pythia-db/pythia/internal/plan"
)

// TestValueIndexMatchesFilter: a column's value index returns exactly the
// rows a filter over every row keeps, grouped by value in ascending order
// and in row order within a value, under Eq, AtMost, AtLeast and Between
// with bounds inside, at the edges of and outside the domain (MinInt64 and
// MaxInt64 included) and Lo > Hi, for Uniform, Zipf and IMDB's production
// year, on domains at both ends of int64 and on an empty relation.
func TestValueIndexMatchesFilter(t *testing.T) {
	db := catalog.NewDatabase()
	cols := []catalog.Column{
		{Name: "uniform", Gen: catalog.Uniform{Lo: -20, Hi: 30, Seed: 3}},
		{Name: "zipf", Gen: catalog.NewZipf(1000, 50, 1.3, 9)},
		{Name: "widest", Gen: catalog.Uniform{Lo: 0, Hi: 1 << 16, Seed: 4}},
		{Name: "bottom", Gen: catalog.Uniform{Lo: math.MinInt64, Hi: math.MinInt64 + 40, Seed: 5}},
		{Name: "top", Gen: catalog.Uniform{Lo: math.MaxInt64 - 40, Hi: math.MaxInt64, Seed: 6}},
	}
	rels := []*catalog.Relation{
		db.AddRelation("r", 5000, 10, cols),
		db.AddRelation("empty", 0, 10, cols),
		imdb.NewGenerator(imdb.Config{Scale: 10, Seed: 17}).DB().Relation("title"),
	}
	for _, rel := range rels {
		for ci, col := range rel.Columns {
			if rel.Name == "title" && col.Name != "t_production_year" {
				continue
			}
			x := rel.ValueIndex(ci)
			if x == nil {
				t.Fatalf("%s.%s is not indexed", rel.Name, col.Name)
			}
			lo, hi := col.Gen.Domain()
			edges := []int64{math.MinInt64, lo, lo + 1, lo + (hi-lo)/2, hi - 1, math.MaxInt64}
			if lo > math.MinInt64 {
				edges = append(edges, lo-1)
			}
			if hi < math.MaxInt64 {
				edges = append(edges, hi)
			}
			var preds []plan.Pred
			for _, a := range edges {
				preds = append(preds, plan.Eq(col.Name, a), plan.AtMost(col.Name, a), plan.AtLeast(col.Name, a))
				for _, b := range edges {
					preds = append(preds, plan.Between(col.Name, a, b))
				}
			}
			for _, p := range preds {
				name := fmt.Sprintf("%s.%s [%d, %d]", rel.Name, col.Name, p.Lo, p.Hi)
				got := x.Range(p.Lo, p.Hi)
				var want []int32
				for row := int64(0); row < rel.Rows; row++ {
					if p.Matches(col.Gen.Value(row)) {
						want = append(want, int32(row))
					}
				}
				if !slices.IsSortedFunc(got, func(a, b int32) int {
					if va, vb := col.Gen.Value(int64(a)), col.Gen.Value(int64(b)); va != vb {
						return cmp.Compare(va, vb)
					}
					return cmp.Compare(a, b)
				}) {
					t.Fatalf("%s: rows not grouped by value in row order", name)
				}
				got = slices.Clone(got)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d rows, the filter keeps %d", name, len(got), len(want))
				}
			}
		}
	}
}

// TestValueIndexFallsBack: no index for a domain wider than 2¹⁶ values
// (Serial's is unbounded), an empty domain, or a generator that produces a
// value outside the Domain it declares.
func TestValueIndexFallsBack(t *testing.T) {
	db := catalog.NewDatabase()
	rel := db.AddRelation("r", 1000, 10, []catalog.Column{
		{Name: "serial", Gen: catalog.Serial{}},
		{Name: "wide", Gen: catalog.Uniform{Lo: 0, Hi: 1<<16 + 1, Seed: 1}},
		{Name: "empty", Gen: catalog.Uniform{Lo: 5, Hi: 5}},
		{Name: "lies", Gen: rowFunc{lo: 0, hi: 10, f: func(row int64) int64 { return row % 11 }}},
		{Name: "honest", Gen: rowFunc{lo: 0, hi: 11, f: func(row int64) int64 { return row % 11 }}},
	})
	for ci, col := range rel.Columns {
		if got, want := rel.ValueIndex(ci) != nil, col.Name == "honest"; got != want {
			t.Errorf("%s: indexed %v, want %v", col.Name, got, want)
		}
	}
}

// TestValueIndexBuiltOnce: goroutines asking for a column's index at once
// all get one index, built by one pass over the rows (run it under -race).
func TestValueIndexBuiltOnce(t *testing.T) {
	const rows = 3000
	var calls atomic.Int64
	db := catalog.NewDatabase()
	rel := db.AddRelation("r", rows, 10, []catalog.Column{
		{Name: "v", Gen: rowFunc{lo: 0, hi: 7, f: func(row int64) int64 { calls.Add(1); return row % 7 }}},
	})
	got := make([]*catalog.ValueIndex, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = rel.ValueIndex(0)
		}()
	}
	close(start)
	wg.Wait()
	for i, x := range got {
		if x == nil || x != got[0] {
			t.Fatalf("goroutine %d got index %p, goroutine 0 %p", i, x, got[0])
		}
	}
	if n := calls.Load(); n != rows {
		t.Fatalf("the generator ran %d times for %d rows", n, rows)
	}
}

// rowFunc is a generator defined by a function of the row, with the domain
// it declares.
type rowFunc struct {
	lo, hi int64
	f      func(int64) int64
}

func (g rowFunc) Value(row int64) int64  { return g.f(row) }
func (g rowFunc) Domain() (lo, hi int64) { return g.lo, g.hi }
