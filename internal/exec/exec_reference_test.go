package exec_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/exec"
	"github.com/pythia-db/pythia/internal/imdb"
	"github.com/pythia-db/pythia/internal/index"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/storage"
)

// refExecutor is the executor as it was before columns were bound once per
// node and the hash join's build side became one grouped table: every
// predicate and join key is evaluated through the string-keyed
// catalog.Relation.Value, and the build side is a map of appended slices.
// TestExecMatchesReference holds exec.Run to it.
type refExecutor struct {
	slots    map[string]int
	cols     map[string]colBinding
	requests []storage.Request
	tuples   int
	rows     int64
	cur      []int64
}

type colBinding struct {
	rel  *catalog.Relation
	slot int
}

func refRun(root *plan.Node) *exec.Result {
	e := &refExecutor{slots: make(map[string]int), cols: make(map[string]colBinding)}
	root.Walk(func(n *plan.Node) {
		if n.Rel == nil {
			return
		}
		if _, ok := e.slots[n.Rel.Name]; ok {
			return
		}
		slot := len(e.slots)
		e.slots[n.Rel.Name] = slot
		for _, c := range n.Rel.Columns {
			e.cols[c.Name] = colBinding{rel: n.Rel, slot: slot}
		}
	})
	e.cur = make([]int64, len(e.slots))
	e.run(root, func() { e.rows++ })
	return &exec.Result{Rows: e.rows, Requests: e.requests, TrailingTuples: e.tuples}
}

func (e *refExecutor) request(p storage.PageID, sequential bool) {
	e.requests = append(e.requests, storage.Request{Page: p, Sequential: sequential, Tuples: int32(e.tuples)})
	e.tuples = 0
}

func (e *refExecutor) slot(rel *catalog.Relation) int { return e.slots[rel.Name] }

func refPredsMatch(rel *catalog.Relation, row int64, preds []plan.Pred) bool {
	for _, p := range preds {
		if !p.Matches(rel.Value(p.Col, row)) {
			return false
		}
	}
	return true
}

func (e *refExecutor) run(n *plan.Node, emit func()) {
	switch n.Kind {
	case plan.KindSeqScan:
		e.seqScan(n, emit)
	case plan.KindNestedLoop:
		inner := n.Right
		e.run(n.Left, func() { e.indexProbe(inner, emit) })
	case plan.KindHashJoin:
		e.hashJoin(n, emit)
	case plan.KindFilter:
		e.run(n.Left, func() {
			if n.Rel == nil || refPredsMatch(n.Rel, e.cur[e.slot(n.Rel)], n.Preds) {
				emit()
			}
		})
	case plan.KindAgg, plan.KindSort:
		e.run(n.Left, emit)
	default:
		panic(fmt.Sprintf("reference executor: plan kind %v", n.Kind))
	}
}

func (e *refExecutor) seqScan(n *plan.Node, emit func()) {
	rel := n.Rel
	slot := e.slot(rel)
	lastPage := storage.PageNum(0)
	havePage := false
	for row := int64(0); row < rel.Rows; row++ {
		p := rel.HeapPage(row)
		if !havePage || p.Page != lastPage {
			e.request(p, true)
			lastPage, havePage = p.Page, true
		}
		e.tuples++
		if refPredsMatch(rel, row, n.Preds) {
			e.cur[slot] = row
			emit()
		}
	}
}

func (e *refExecutor) indexProbe(n *plan.Node, emit func()) {
	probe := n.Index.Tree.Lookup(e.outerValue(n.OuterCol))
	for _, p := range probe.IndexPages {
		e.request(p, false)
	}
	rel := n.Rel
	slot := e.slot(rel)
	for _, row := range probe.Rows {
		e.request(rel.HeapPage(row), false)
		e.tuples++
		if refPredsMatch(rel, row, n.Preds) {
			e.cur[slot] = row
			emit()
		}
	}
}

func (e *refExecutor) outerValue(col string) int64 {
	b := e.cols[col]
	return b.rel.Value(col, e.cur[b.slot])
}

func (e *refExecutor) hashJoin(n *plan.Node, emit func()) {
	build := n.Right
	rel := build.Rel
	slot := e.slot(rel)
	table := make(map[int64][]int64)
	e.run(build, func() {
		row := e.cur[slot]
		k := rel.Value(n.InnerCol, row)
		table[k] = append(table[k], row)
	})
	e.run(n.Left, func() {
		for _, row := range table[e.outerValue(n.OuterCol)] {
			e.cur[slot] = row
			e.tuples++
			emit()
		}
	})
}

// checkMatchesReference runs root through exec.Run and the reference and
// compares Rows, Requests and TrailingTuples.
func checkMatchesReference(t *testing.T, name string, root *plan.Node) {
	t.Helper()
	got, want := exec.Run(root), refRun(root)
	if got.Rows != want.Rows || got.TrailingTuples != want.TrailingTuples {
		t.Fatalf("%s: rows %d, trailing tuples %d; reference %d, %d",
			name, got.Rows, got.TrailingTuples, want.Rows, want.TrailingTuples)
	}
	if !slices.Equal(got.Requests, want.Requests) {
		i := 0
		for i < min(len(got.Requests), len(want.Requests)) && got.Requests[i] == want.Requests[i] {
			i++
		}
		t.Fatalf("%s: %d requests, reference %d; first difference at %d", name, len(got.Requests), len(want.Requests), i)
	}
}

// TestExecMatchesReference: exec.Run gives the reference executor's page
// requests, row count and trailing tuples on every DSB template at two
// scales and two seeds, on the IMDB template, and on hand-built hash joins
// whose build side repeats keys (scan order kept within a key) and whose
// outer side probes keys the build side lacks, with build keys addressed
// directly and through the map; and on hand-built seq scans that read their
// rows through a value index: a partly filled last page, empty, inverted and
// full ranges, a second predicate, a nested loop whose probes request pages
// mid-page, a column too wide to index and an empty relation.
func TestExecMatchesReference(t *testing.T) {
	hashJoins := 0
	count := func(root *plan.Node) {
		root.Walk(func(n *plan.Node) {
			if n.Kind == plan.KindHashJoin {
				hashJoins++
			}
		})
	}
	for _, sf := range []int{4, 20} {
		for _, seed := range []uint64{1, 7} {
			g := dsb.NewGenerator(dsb.Config{ScaleFactor: sf, Seed: seed})
			pl := plan.NewPlanner(g.DB())
			for _, tpl := range g.Templates() {
				n := 12
				if sf == 20 {
					n = 4
				}
				for i, q := range g.Queries(tpl, n, seed+3) {
					root := pl.MustPlan(q)
					count(root)
					checkMatchesReference(t, fmt.Sprintf("%s sf=%d seed=%d #%d", tpl, sf, seed, i), root)
				}
			}
		}
	}
	ig := imdb.NewGenerator(imdb.Config{Scale: 10, Seed: 7})
	pl := plan.NewPlanner(ig.DB())
	for i, q := range ig.Queries(12, 9) {
		root := pl.MustPlan(q)
		count(root)
		checkMatchesReference(t, fmt.Sprintf("imdb #%d", i), root)
	}
	if hashJoins == 0 {
		t.Fatal("no workload plan has a hash join")
	}

	// Hand-built joins whose build key repeats and whose outer keys reach
	// past the build side's, so some probes find nothing. A nested loop
	// above each join probes an index with the build row's number, so the
	// request stream shows the order in which a key's build rows come out.
	// The narrow keys are addressed directly, the wide ones (negative ones
	// included) through the map.
	for _, c := range []struct {
		name  string
		scale int64
	}{{"dense", 1}, {"sparse", 1 << 40}} {
		db := catalog.NewDatabase()
		keyOf := func(v int64) int64 { return (v - 20) * c.scale }
		db.AddRelation("fact", 3000, 25, []catalog.Column{
			{Name: "f_key", Gen: rowFunc{func(row int64) int64 { return keyOf(catalog.Uniform{Lo: 0, Hi: 45, Seed: 11}.Value(row)) }}},
			{Name: "f_val", Gen: catalog.Uniform{Lo: 0, Hi: 100, Seed: 12}},
		})
		db.AddRelation("dim", 400, 10, []catalog.Column{
			{Name: "d_sk", Gen: catalog.Serial{}},
			{Name: "d_key", Gen: rowFunc{func(row int64) int64 { return keyOf(row % 37) }}},
			{Name: "d_val", Gen: catalog.Uniform{Lo: 0, Hi: 10, Seed: 14}},
		})
		other := db.AddRelation("other", 400, 10, []catalog.Column{{Name: "o_sk", Gen: catalog.Serial{}}})
		db.BuildIndex(other, "o_sk", index.Config{LeafCap: 8, Fanout: 4})
		join := &plan.Node{
			Kind:     plan.KindHashJoin,
			Left:     &plan.Node{Kind: plan.KindSeqScan, Rel: db.Relation("fact"), Preds: []plan.Pred{plan.AtMost("f_val", 60)}},
			Right:    &plan.Node{Kind: plan.KindSeqScan, Rel: db.Relation("dim"), Preds: []plan.Pred{plan.AtLeast("d_val", 2)}},
			OuterCol: "f_key",
			InnerCol: "d_key",
		}
		root := &plan.Node{Kind: plan.KindAgg, Left: &plan.Node{
			Kind:  plan.KindNestedLoop,
			Left:  join,
			Right: &plan.Node{Kind: plan.KindIndexScan, Rel: other, Index: other.IndexOn("o_sk"), OuterCol: "d_sk"},
		}}
		if res := refRun(&plan.Node{Kind: plan.KindAgg, Left: join}); res.Rows == 0 || res.Rows >= 3000*10 {
			t.Fatalf("%s: the join emits %d rows; the case needs repeated keys and misses", c.name, res.Rows)
		}
		checkMatchesReference(t, c.name, root)
	}

	// Hand-built seq scans whose first predicate's column has a value
	// index, on a relation whose last page is partly filled, alone and under
	// a nested loop whose probes request pages between the scan's rows.
	db := catalog.NewDatabase()
	scan := db.AddRelation("scan", 1003, 12, []catalog.Column{
		{Name: "s_v", Gen: catalog.Uniform{Lo: 0, Hi: 200, Seed: 21}},
		{Name: "s_w", Gen: catalog.Uniform{Lo: 0, Hi: 10, Seed: 22}},
		{Name: "s_wide", Gen: catalog.Uniform{Lo: 0, Hi: 1 << 20, Seed: 23}},
		{Name: "s_key", Gen: catalog.Uniform{Lo: 0, Hi: 300, Seed: 24}},
	})
	none := db.AddRelation("none", 0, 12, []catalog.Column{{Name: "n_v", Gen: catalog.Uniform{Lo: 0, Hi: 200, Seed: 25}}})
	probe := db.AddRelation("probe", 300, 7, []catalog.Column{{Name: "p_sk", Gen: catalog.Serial{}}})
	db.BuildIndex(probe, "p_sk", index.Config{LeafCap: 8, Fanout: 4})
	if scan.ValueIndex(scan.ColumnIndex("s_v")) == nil || scan.ValueIndex(scan.ColumnIndex("s_wide")) != nil {
		t.Fatal("s_v must have a value index and s_wide must not")
	}
	for _, c := range []struct {
		name  string
		rel   *catalog.Relation
		preds []plan.Pred
	}{
		{"range", scan, []plan.Pred{plan.Between("s_v", 50, 59)}},
		{"empty range", scan, []plan.Pred{plan.Between("s_v", 200, 400)}},
		{"inverted range", scan, []plan.Pred{plan.Between("s_v", 60, 50)}},
		{"full range", scan, []plan.Pred{plan.AtMost("s_v", math.MaxInt64)}},
		{"second predicate", scan, []plan.Pred{plan.AtLeast("s_v", 100), plan.Eq("s_w", 3)}},
		{"too wide to index", scan, []plan.Pred{plan.Between("s_wide", 0, 1<<16)}},
		{"no predicate", scan, nil},
		{"empty relation", none, []plan.Pred{plan.AtMost("n_v", 100)}},
	} {
		seq := &plan.Node{Kind: plan.KindSeqScan, Rel: c.rel, Preds: c.preds}
		checkMatchesReference(t, c.name, &plan.Node{Kind: plan.KindAgg, Left: seq})
		if c.rel == scan {
			checkMatchesReference(t, c.name+" under a nested loop", &plan.Node{Kind: plan.KindAgg, Left: &plan.Node{
				Kind:  plan.KindNestedLoop,
				Left:  seq,
				Right: &plan.Node{Kind: plan.KindIndexScan, Rel: probe, Index: probe.IndexOn("p_sk"), OuterCol: "s_key"},
			}})
		}
	}
}

// rowFunc is a column generator defined by a function of the row.
type rowFunc struct{ f func(int64) int64 }

func (g rowFunc) Value(row int64) int64 { return g.f(row) }

func (g rowFunc) Domain() (int64, int64) { return math.MinInt64, math.MaxInt64 }
