package workload_test

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/trace"
	"github.com/pythia-db/pythia/internal/workload"
)

func testWorkload(t *testing.T, tpl string, n int) *workload.Workload {
	t.Helper()
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 5, Seed: 7})
	return g.Workload(tpl, n, 1)
}

func TestBuildPopulatesInstances(t *testing.T) {
	w := testWorkload(t, "t91", 10)
	if len(w.Instances) != 10 {
		t.Fatalf("instances = %d", len(w.Instances))
	}
	for i, inst := range w.Instances {
		if inst.Plan == nil || inst.Pages == nil {
			t.Fatalf("instance %d incomplete", i)
		}
		if len(inst.Requests) == 0 {
			t.Fatalf("instance %d has no requests", i)
		}
		if !slices.Equal(inst.Pages, trace.Process(inst.Requests)) {
			t.Fatalf("instance %d Pages out of sync with its requests", i)
		}
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	w := testWorkload(t, "t18", 20)
	train, test := w.Split(0.25, 3)
	if len(test) != 5 || len(train) != 15 {
		t.Fatalf("split sizes: train=%d test=%d", len(train), len(test))
	}
	seen := map[*workload.Instance]bool{}
	for _, i := range append(append([]*workload.Instance{}, train...), test...) {
		if seen[i] {
			t.Fatal("instance in both splits")
		}
		seen[i] = true
	}
	if len(seen) != 20 {
		t.Fatal("split lost instances")
	}
	// Deterministic in seed.
	train2, _ := w.Split(0.25, 3)
	for i := range train {
		if train[i] != train2[i] {
			t.Fatal("split not deterministic")
		}
	}
	// Tiny fractions still hold out at least one query.
	_, testOne := w.Split(0.01, 3)
	if len(testOne) != 1 {
		t.Fatalf("minimum holdout violated: %d", len(testOne))
	}
}

func TestMerge(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 5, Seed: 7})
	a := g.Workload("t18", 5, 1)
	b := g.Workload("t19", 5, 2)
	m := workload.Merge("hetero", a, b)
	if len(m.Instances) != 10 {
		t.Fatalf("merged instances = %d", len(m.Instances))
	}
	if m.DB != a.DB {
		t.Fatal("merged DB wrong")
	}
}

func TestMergePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty Merge did not panic")
			}
		}()
		workload.Merge("x")
	}()
	g1 := dsb.NewGenerator(dsb.Config{ScaleFactor: 5, Seed: 7})
	g2 := dsb.NewGenerator(dsb.Config{ScaleFactor: 5, Seed: 8})
	a := g1.Workload("t91", 2, 1)
	b := g2.Workload("t91", 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-database Merge did not panic")
		}
	}()
	workload.Merge("x", a, b)
}

func TestSubsample(t *testing.T) {
	w := testWorkload(t, "t91", 12)
	half := workload.Subsample(w.Instances, 0.5, 9)
	if len(half) != 6 {
		t.Fatalf("subsample = %d", len(half))
	}
	if got := workload.Subsample(w.Instances, 2.0, 9); len(got) != 12 {
		t.Fatal("overfull subsample should return all")
	}
	if got := workload.Subsample(w.Instances, 0.0001, 9); len(got) != 1 {
		t.Fatal("tiny subsample should keep one")
	}
	// Deterministic.
	again := workload.Subsample(w.Instances, 0.5, 9)
	for i := range half {
		if half[i] != again[i] {
			t.Fatal("subsample not deterministic")
		}
	}
}

func TestSimilarityProperties(t *testing.T) {
	w := testWorkload(t, "t91", 8)
	a, b := w.Instances[0], w.Instances[1]
	if workload.Similarity(a, a) != 1 {
		t.Fatal("self similarity != 1")
	}
	if workload.Similarity(a, b) != workload.Similarity(b, a) {
		t.Fatal("similarity asymmetric")
	}
	s := workload.AvgSimilarity(a, w.Instances[1:])
	if s < 0 || s > 1 {
		t.Fatalf("avg similarity %f out of range", s)
	}
	if workload.AvgSimilarity(a, nil) != 0 {
		t.Fatal("empty-train similarity should be 0")
	}
}

func TestNonSeqReads(t *testing.T) {
	w := testWorkload(t, "t91", 4)
	for _, inst := range w.Instances {
		if workload.NonSeqReads(inst) != len(inst.Pages) {
			t.Fatal("NonSeqReads disagrees with Pages")
		}
	}
}

func TestComputeStats(t *testing.T) {
	w := testWorkload(t, "t91", 10)
	st := w.ComputeStats()
	if st.SeqIO <= 0 {
		t.Fatal("no sequential IO counted")
	}
	if st.MinDistinctNS > st.MaxDistinctNS {
		t.Fatalf("min %d > max %d", st.MinDistinctNS, st.MaxDistinctNS)
	}
	if st.RelationsJoined != 7 {
		t.Fatalf("t91 joins %d relations, want 7", st.RelationsJoined)
	}
	if st.DistinctPlans < 1 || st.DistinctPlans > 10 {
		t.Fatalf("distinct plans = %d", st.DistinctPlans)
	}
	empty := &workload.Workload{}
	est := empty.ComputeStats()
	if est.MinDistinctNS != 0 || est.MaxDistinctNS != 0 {
		t.Fatalf("empty workload stats: %+v", est)
	}
}

// mixedQueries is a query list whose instances cost very different amounts
// to build, so that parallel workers finish them out of order.
func mixedQueries(g *dsb.Generator) []plan.Query {
	var qs []plan.Query
	for k, tpl := range g.Templates() {
		qs = append(qs, g.Queries(tpl, 6, uint64(k+1))...)
	}
	return qs
}

// TestBuildSameAtAnyGOMAXPROCS: the workers write instance i to slot i, so
// a Build on one, two or four cores gives deep-equal instances.
func TestBuildSameAtAnyGOMAXPROCS(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 4, Seed: 7})
	qs := mixedQueries(g)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want *workload.Workload
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		w, err := workload.Build("mixed", g.DB(), qs)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Instances) != len(qs) {
			t.Fatalf("GOMAXPROCS %d: %d instances, want %d", procs, len(w.Instances), len(qs))
		}
		for i, inst := range w.Instances {
			if inst.Query.Template != qs[i].Template || inst.Query.Instance != qs[i].Instance {
				t.Fatalf("GOMAXPROCS %d: slot %d holds %s #%d, want %s #%d", procs, i,
					inst.Query.Template, inst.Query.Instance, qs[i].Template, qs[i].Instance)
			}
		}
		if want == nil {
			want = w
		} else if !reflect.DeepEqual(w, want) {
			t.Fatalf("GOMAXPROCS %d: instances differ from GOMAXPROCS 1", procs)
		}
	}
}

// TestBuildReportsFirstFailingQuery: with two bad queries at i < j, Build
// fails as the serial loop did, at any GOMAXPROCS: with query i's planner
// error when i is unplannable, and with query i's panic, on the caller's
// goroutine, when i plans but cannot run. A panic at j never escapes.
func TestBuildReportsFirstFailingQuery(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 4, Seed: 7})
	qs := mixedQueries(g)
	i, j := 1, len(qs)-2
	unplannable := func(k int) []plan.Query {
		bad := slices.Clone(qs)
		bad[k].Fact = "no_such_fact"
		return bad
	}
	// The planner takes an unknown predicate column as neutral, and the
	// executor panics on it.
	unrunnable := func(bad []plan.Query, k int) []plan.Query {
		bad[k].FactPreds = append(slices.Clone(bad[k].FactPreds), plan.Between("no_such_column", 0, 1))
		return bad
	}
	twoErrors := unplannable(i)
	twoErrors[j].Dims = slices.Clone(twoErrors[j].Dims)
	twoErrors[j].Dims[0].Dim = "no_such_dimension"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct {
			name  string
			bad   []plan.Query
			panic bool
		}{
			{"two planner errors", twoErrors, false},
			{"error, then a panic", unrunnable(unplannable(i), j), false},
			{"panic, then an error", unrunnable(unplannable(j), i), true},
		} {
			p, w, err := tryBuild(g, c.bad)
			switch {
			case c.panic:
				if msg, _ := p.(string); !strings.Contains(msg, "no_such_column") {
					t.Fatalf("GOMAXPROCS %d, %s: Build gave %v, %v, panic %v; want the panic of query %d", procs, c.name, w, err, p, i)
				}
			case p != nil || w != nil || err == nil:
				t.Fatalf("GOMAXPROCS %d, %s: Build gave %v, %v, panic %v; want an error", procs, c.name, w, err, p)
			case !strings.Contains(err.Error(), "no_such_fact") || strings.Contains(err.Error(), "no_such_dimension"):
				t.Fatalf("GOMAXPROCS %d, %s: error %q does not name the first bad query alone", procs, c.name, err)
			}
		}
	}
}

// tryBuild runs Build and returns what it panicked with, if it did.
func tryBuild(g *dsb.Generator, qs []plan.Query) (p any, w *workload.Workload, err error) {
	defer func() { p = recover() }()
	w, err = workload.Build("mixed", g.DB(), qs)
	return nil, w, err
}
