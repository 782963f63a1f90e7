package dsb

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/pythia-db/pythia/internal/catalog"
)

func TestSchemaComplete(t *testing.T) {
	g := NewGenerator(Config{ScaleFactor: 5, Seed: 7})
	db := g.DB()
	facts := []string{"store_sales", "store_returns", "catalog_sales", "catalog_returns", "web_sales", "web_returns", "inventory"}
	dims := []string{"date_dim", "time_dim", "item", "customer", "customer_address",
		"customer_demographics", "household_demographics", "store", "catalog_page",
		"web_site", "web_page", "warehouse", "ship_mode", "reason", "income_band",
		"promotion", "call_center"}
	if len(facts) != 7 || len(dims) != 17 {
		t.Fatal("test fixture miscounts DSB relations")
	}
	for _, n := range append(facts, dims...) {
		rel := db.Relation(n)
		if rel == nil {
			t.Fatalf("relation %s missing", n)
		}
		if rel.Rows <= 0 || rel.Heap.Pages == 0 {
			t.Fatalf("relation %s has no data", n)
		}
	}
	// Every dimension has an index on its surrogate key.
	for _, n := range dims {
		if db.Relation(n).IndexOn(n+"_sk") == nil {
			t.Fatalf("dimension %s lacks its key index", n)
		}
	}
}

func TestScaleFactorScalesFacts(t *testing.T) {
	small := NewGenerator(Config{ScaleFactor: 25, Seed: 7})
	large := NewGenerator(Config{ScaleFactor: 100, Seed: 7})
	s := small.DB().Relation("store_sales")
	l := large.DB().Relation("store_sales")
	if l.Rows != 4*s.Rows {
		t.Fatalf("SF scaling wrong: 25→%d rows, 100→%d rows", s.Rows, l.Rows)
	}
	// Static dims do not scale.
	if small.DB().Relation("date_dim").Rows != large.DB().Relation("date_dim").Rows {
		t.Fatal("date_dim should be scale-independent")
	}
	if small.DB().Registry.TotalPages() >= large.DB().Registry.TotalPages() {
		t.Fatal("total pages did not grow with scale")
	}
}

func TestForeignKeysAreValid(t *testing.T) {
	g := NewGenerator(Config{ScaleFactor: 5, Seed: 7})
	db := g.DB()
	checks := map[string][2]string{
		"cs_item_sk":            {"catalog_sales", "item"},
		"ss_customer_sk":        {"store_sales", "customer"},
		"cr_returning_cdemo_sk": {"catalog_returns", "customer_demographics"},
		"cr_call_center_sk":     {"catalog_returns", "call_center"},
	}
	for col, pair := range checks {
		fact := db.Relation(pair[0])
		target := db.Relation(pair[1])
		for row := int64(0); row < fact.Rows; row += 37 {
			v := fact.Value(col, row)
			if v < 0 || v >= target.Rows {
				t.Fatalf("%s.%s = %d out of [0,%d)", pair[0], col, v, target.Rows)
			}
		}
	}
}

func TestFKCorrelatedWithDate(t *testing.T) {
	g := NewGenerator(Config{ScaleFactor: 10, Seed: 7})
	fact := g.DB().Relation("catalog_sales")
	// Rows with nearby dates should map to nearby customer keys far more
	// often than random pairs would.
	custRows := g.DB().Relation("customer").Rows
	nearCount := 0
	samples := 0
	for row := int64(0); row < fact.Rows-1 && samples < 3000; row++ {
		d1 := fact.Value("catalog_sales_sold_date", row)
		for other := row + 1; other < row+40 && other < fact.Rows; other++ {
			d2 := fact.Value("catalog_sales_sold_date", other)
			if d1-d2 > 3 || d2-d1 > 3 {
				continue
			}
			samples++
			k1 := fact.Value("cs_bill_customer_sk", row)
			k2 := fact.Value("cs_bill_customer_sk", other)
			diff := k1 - k2
			if diff < 0 {
				diff = -diff
			}
			if diff < custRows/4 {
				nearCount++
			}
		}
	}
	if samples < 100 {
		t.Fatalf("too few same-date pairs sampled: %d", samples)
	}
	frac := float64(nearCount) / float64(samples)
	if frac < 0.6 {
		t.Fatalf("date→key correlation too weak: %.2f of same-date pairs are key-near", frac)
	}
}

func TestQueriesDeterministicAndTagged(t *testing.T) {
	g := NewGenerator(Config{ScaleFactor: 5, Seed: 7})
	a := g.Queries("t18", 10, 3)
	b := g.Queries("t18", 10, 3)
	for i := range a {
		if a[i].Template != "t18" || a[i].Instance != i {
			t.Fatalf("query %d tags wrong: %+v", i, a[i])
		}
		if len(a[i].FactPreds) != len(b[i].FactPreds) || a[i].FactPreds[0] != b[i].FactPreds[0] {
			t.Fatal("query generation not deterministic")
		}
	}
	c := g.Queries("t18", 10, 4)
	same := 0
	for i := range a {
		if a[i].FactPreds[0] == c[i].FactPreds[0] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical instances")
	}
}

// TestScaleFactorValidated: 0 selects the reference SF 100, a positive value
// is kept, and a negative one panics instead of silently running at SF 100.
func TestScaleFactorValidated(t *testing.T) {
	for _, c := range []struct {
		sf, want int // want 0: NewGenerator panics
	}{
		{-1, 0}, {-100, 0}, {math.MinInt, 0}, {0, 100}, {1, 1}, {3, 3},
	} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			if got := NewGenerator(Config{ScaleFactor: c.sf, Seed: 7}).Config().ScaleFactor; got != c.want {
				t.Errorf("ScaleFactor %d runs at %d, want %d", c.sf, got, c.want)
			}
			return false
		}()
		if panicked != (c.want == 0) {
			t.Errorf("ScaleFactor %d: panicked = %v, want %v", c.sf, panicked, c.want == 0)
		}
	}
}

func TestUnknownTemplatePanics(t *testing.T) {
	g := NewGenerator(Config{ScaleFactor: 5, Seed: 7})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown template did not panic")
		}
	}()
	g.Queries("t99", 1, 1)
}

func TestParseTemplates(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string // nil: an error naming every valid template
	}{
		{"t91", []string{"t91"}},
		{" t18 ,t91,, ", []string{"t18", "t91"}},
		{"t18,t19,t91", []string{"t18", "t19", "t91"}},
		{"t91,t99", nil},
		{"T91", nil},
		{"", nil},
		{" , ,", nil},
	} {
		got, err := ParseTemplates(tc.list)
		if tc.want != nil {
			if err != nil || !slices.Equal(got, tc.want) {
				t.Errorf("ParseTemplates(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseTemplates(%q) = %v, want an error", tc.list, got)
			continue
		}
		for _, name := range []string{"t18", "t19", "t91"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseTemplates(%q) error %q does not name %s", tc.list, err, name)
			}
		}
	}
}

func TestTemplateRegimesMatchTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("workload execution in -short mode")
	}
	g := NewGenerator(Config{ScaleFactor: 20, Seed: 7})
	stats := map[string]struct {
		seqPerQuery int
		plans       int
		rels        int
		idx         int
	}{}
	n := 60
	for _, tpl := range g.Templates() {
		w := g.Workload(tpl, n, 1)
		st := w.ComputeStats()
		stats[tpl] = struct {
			seqPerQuery int
			plans       int
			rels        int
			idx         int
		}{st.SeqIO / n, st.DistinctPlans, st.RelationsJoined, st.MaxIndexScanned}
	}
	// Relations joined and max index-scanned dims (Table 1 row 4).
	if stats["t18"].rels != 6 || stats["t19"].rels != 6 || stats["t91"].rels != 7 {
		t.Fatalf("relations joined: %+v", stats)
	}
	if stats["t91"].idx < stats["t18"].idx || stats["t91"].idx < 5 {
		t.Fatalf("t91 should index-scan the most dims: %+v", stats)
	}
	// t91's fact is by far the smallest (its seq IO per query is lowest);
	// t19's is the largest — the Table 1 Sequential IO ordering.
	if !(stats["t91"].seqPerQuery < stats["t18"].seqPerQuery && stats["t18"].seqPerQuery < stats["t19"].seqPerQuery) {
		t.Fatalf("sequential IO ordering wrong: %+v", stats)
	}
	// Distinct plan ordering: t18 most, t91 fewest (21 / 8 / 2 in Table 1).
	if !(stats["t18"].plans >= stats["t19"].plans && stats["t19"].plans > stats["t91"].plans) {
		t.Fatalf("distinct plan ordering wrong: %+v", stats)
	}
}

func TestWorkloadInstancesHaveNonSeqReads(t *testing.T) {
	g := NewGenerator(Config{ScaleFactor: 10, Seed: 7})
	w := g.Workload("t91", 20, 2)
	withNS := 0
	for _, inst := range w.Instances {
		if len(inst.Pages) > 0 {
			withNS++
		}
		// Trace pages must reference registered objects.
		for _, p := range inst.Pages {
			obj := g.DB().Registry.Lookup(p.Object)
			if obj == nil || p.Page >= obj.Pages {
				t.Fatalf("trace page %v out of bounds", p)
			}
		}
	}
	if withNS < len(w.Instances)/2 {
		t.Fatalf("only %d/%d instances had non-sequential reads", withNS, len(w.Instances))
	}
}

func TestModuloWrap(t *testing.T) {
	m := moduloWrap{base: plainGen{-7}, mod: 5}
	if v := m.Value(0); v < 0 || v >= 5 {
		t.Fatalf("moduloWrap produced %d", v)
	}
	lo, hi := m.Domain()
	if lo != 0 || hi != 5 {
		t.Fatal("moduloWrap domain wrong")
	}
}

type plainGen struct{ v int64 }

func (p plainGen) Value(int64) int64      { return p.v }
func (p plainGen) Domain() (int64, int64) { return p.v, p.v + 1 }

// TestFactPricesShareOneTable: the seven facts' price columns draw from one
// Zipf CDF table, each with a seed of its own, so NewGenerator pays for the
// table once.
func TestFactPricesShareOneTable(t *testing.T) {
	db := NewGenerator(Config{ScaleFactor: 4, Seed: 7}).DB()
	facts := []string{"store_sales", "catalog_sales", "web_sales", "store_returns", "catalog_returns", "web_returns", "inventory"}
	tables := map[uintptr]bool{}
	seeds := map[uint64]bool{}
	for _, name := range facts {
		rel := db.Relation(name)
		z, ok := rel.Columns[rel.ColumnIndex(name+"_price")].Gen.(*catalog.Zipf)
		if !ok {
			t.Fatalf("%s_price is not a Zipf column", name)
		}
		// The table is unexported; reflect reads its address.
		tables[reflect.ValueOf(z).Elem().FieldByName("cdf").Pointer()] = true
		seeds[z.Seed] = true
	}
	if len(tables) != 1 {
		t.Fatalf("the %d price columns use %d CDF tables, want 1", len(facts), len(tables))
	}
	if len(seeds) != len(facts) {
		t.Fatalf("the %d price columns use %d distinct seeds", len(facts), len(seeds))
	}
}

// TestGeneratorsStayInDomain: every generator of the DSB schema, the ones
// nested inside a column's generator included, produces only values inside
// its Domain on every row, at two scales. The planner's selectivities and
// the catalog's value index rely on it.
func TestGeneratorsStayInDomain(t *testing.T) {
	for _, sf := range []int{4, 20} {
		for _, rel := range NewGenerator(Config{ScaleFactor: sf, Seed: 7}).DB().Relations() {
			for _, col := range rel.Columns {
				for depth, gen := range nested(col.Gen) {
					lo, hi := gen.Domain()
					for row := int64(0); row < rel.Rows; row++ {
						if v := gen.Value(row); v < lo || v >= hi {
							t.Fatalf("sf=%d %s.%s, generator at depth %d: row %d is %d, outside its domain [%d, %d)",
								sf, rel.Name, col.Name, depth, row, v, lo, hi)
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
	case moduloWrap:
		out = append(out, nested(g.base)...)
	case catalog.Noisy:
		out = append(out, nested(g.Base)...)
	case catalog.Correlated:
		out = append(out, nested(g.Base)...)
	}
	return out
}
