package imdb

import (
	"math"
	"slices"
	"testing"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/storage"
)

// TestScaleValidated: 0 selects the reference scale 100, a positive value is
// kept, and a negative one panics instead of silently running at scale 100.
// cast_info has 300 000 rows at scale 100.
func TestScaleValidated(t *testing.T) {
	for _, c := range []struct {
		scale int
		rows  int64 // 0: NewGenerator panics
	}{
		{-1, 0}, {-100, 0}, {math.MinInt, 0}, {0, 300000}, {1, 3000}, {10, 30000},
	} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			if got := NewGenerator(Config{Scale: c.scale, Seed: 17}).CastInfo().Rows; got != c.rows {
				t.Errorf("Scale %d: cast_info has %d rows, want %d", c.scale, got, c.rows)
			}
			return false
		}()
		if panicked != (c.rows == 0) {
			t.Errorf("Scale %d: panicked = %v, want %v", c.scale, panicked, c.rows == 0)
		}
	}
}

func TestSchemaHasNineRelations(t *testing.T) {
	g := NewGenerator(Config{Scale: 10, Seed: 17})
	names := []string{"title", "cast_info", "name", "char_name", "company_name",
		"movie_companies", "movie_info", "role_type", "info_type"}
	if len(names) != 9 {
		t.Fatal("fixture miscounts relations")
	}
	for _, n := range names {
		if g.DB().Relation(n) == nil {
			t.Fatalf("relation %s missing", n)
		}
	}
	if g.CastInfo() == nil || g.CastInfo().Name != "cast_info" {
		t.Fatal("CastInfo accessor wrong")
	}
}

func TestCastInfoDominates(t *testing.T) {
	g := NewGenerator(Config{Scale: 50, Seed: 17})
	cast := g.CastInfo()
	for _, rel := range g.DB().Relations() {
		if rel.Name == "cast_info" {
			continue
		}
		if rel.Heap.Pages >= cast.Heap.Pages {
			t.Fatalf("%s (%d pages) not smaller than cast_info (%d)",
				rel.Name, rel.Heap.Pages, cast.Heap.Pages)
		}
	}
}

func TestForeignKeysValid(t *testing.T) {
	g := NewGenerator(Config{Scale: 10, Seed: 17})
	title := g.DB().Relation("title")
	targets := map[string]string{
		"t_name_fk":    "name",
		"t_char_fk":    "char_name",
		"t_company_fk": "company_name",
		"t_mc_fk":      "movie_companies",
		"t_mi_fk":      "movie_info",
	}
	for col, tgt := range targets {
		rows := g.DB().Relation(tgt).Rows
		for row := int64(0); row < title.Rows; row += 53 {
			if v := title.Value(col, row); v < 0 || v >= rows {
				t.Fatalf("%s = %d out of [0,%d)", col, v, rows)
			}
		}
	}
}

func TestQueriesShape(t *testing.T) {
	g := NewGenerator(Config{Scale: 10, Seed: 17})
	qs := g.Queries(50, 3)
	if len(qs) != 50 {
		t.Fatal("query count wrong")
	}
	withKind, without := 0, 0
	for i, q := range qs {
		if q.Template != "imdb1a" || q.Instance != i || q.Fact != "title" {
			t.Fatalf("query %d tags wrong", i)
		}
		if len(q.Dims) != 8 {
			t.Fatalf("query %d joins %d dims, want 8", i, len(q.Dims))
		}
		if len(q.FactPreds) == 2 {
			withKind++
		} else {
			without++
		}
		hasCast := false
		for _, d := range q.Dims {
			if d.Dim == "cast_info" && d.ForceIndex {
				hasCast = true
			}
		}
		if !hasCast {
			t.Fatalf("query %d does not index-probe cast_info", i)
		}
	}
	if withKind == 0 || without == 0 {
		t.Fatalf("kind-predicate mix degenerate: %d/%d", withKind, without)
	}
}

func TestQueriesDeterministic(t *testing.T) {
	g := NewGenerator(Config{Scale: 10, Seed: 17})
	a := g.Queries(10, 3)
	b := g.Queries(10, 3)
	for i := range a {
		if a[i].FactPreds[0] != b[i].FactPreds[0] {
			t.Fatal("query generation not deterministic")
		}
	}
}

func TestWorkloadRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("workload execution in -short mode")
	}
	g := NewGenerator(Config{Scale: 25, Seed: 17})
	w := g.Workload(16, 1)
	st := w.ComputeStats()
	// The defining 1a regime: sequential IO is small relative to
	// non-sequential IO (the paper reports 4 sequential reads vs thousands
	// of non-sequential ones).
	if st.MaxDistinctNS <= st.SeqIO/len(w.Instances) {
		t.Fatalf("non-seq (%d) should dominate per-query seq IO (%d)",
			st.MaxDistinctNS, st.SeqIO/len(w.Instances))
	}
	if st.RelationsJoined != 9 {
		t.Fatalf("relations joined = %d, want 9", st.RelationsJoined)
	}
	if st.MaxIndexScanned < 6 {
		t.Fatalf("index-scanned dims = %d, want >= 6", st.MaxIndexScanned)
	}
	// Spread between smallest and largest instance (Table 1's 42× range,
	// scaled expectations: at least 2×).
	if st.MinDistinctNS*2 > st.MaxDistinctNS {
		t.Fatalf("non-seq spread too narrow: [%d,%d]", st.MinDistinctNS, st.MaxDistinctNS)
	}
	// cast_info pages appear in traces.
	castID := g.CastInfo().Heap.ID
	found := false
	for _, inst := range w.Instances {
		if slices.ContainsFunc(inst.Pages, func(p storage.PageID) bool { return p.Object == castID }) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no cast_info pages in any trace")
	}
}

func TestWrapGenerator(t *testing.T) {
	w := wrap{base: negGen{}, mod: 5}
	if v := w.Value(0); v < 0 || v >= 5 {
		t.Fatalf("wrap produced %d", v)
	}
	if lo, hi := w.Domain(); lo != 0 || hi != 5 {
		t.Fatal("wrap domain wrong")
	}
}

type negGen struct{}

func (negGen) Value(int64) int64      { return -13 }
func (negGen) Domain() (int64, int64) { return -13, -12 }

// TestGeneratorsStayInDomain: every generator of the IMDB schema, the ones
// nested inside a column's generator included, produces only values inside
// its Domain on every row, at two scales. The planner's selectivities and
// the catalog's value index rely on it.
func TestGeneratorsStayInDomain(t *testing.T) {
	for _, scale := range []int{10, 100} {
		for _, rel := range NewGenerator(Config{Scale: scale, Seed: 17}).DB().Relations() {
			for _, col := range rel.Columns {
				for depth, gen := range nested(col.Gen) {
					lo, hi := gen.Domain()
					for row := int64(0); row < rel.Rows; row++ {
						if v := gen.Value(row); v < lo || v >= hi {
							t.Fatalf("scale=%d %s.%s, generator at depth %d: row %d is %d, outside its domain [%d, %d)",
								scale, rel.Name, col.Name, depth, row, v, lo, hi)
						}
					}
				}
			}
		}
	}
}

// nested returns g and every generator it wraps, outermost first.
func nested(g catalog.Generator) []catalog.Generator {
	out := []catalog.Generator{g}
	switch g := g.(type) {
	case wrap:
		out = append(out, nested(g.base)...)
	case catalog.Noisy:
		out = append(out, nested(g.Base)...)
	case catalog.Correlated:
		out = append(out, nested(g.Base)...)
	}
	return out
}
