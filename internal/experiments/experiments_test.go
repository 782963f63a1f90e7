package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/pythia-db/pythia/internal/fault"
)

// One shared fast suite for the whole test binary: experiments share
// workloads and trained systems, so reusing the suite keeps the test run
// fast while still exercising every experiment end to end.
var (
	suiteOnce sync.Once
	fastSuite *Suite
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	suiteOnce.Do(func() { fastSuite = NewSuite(Fast()) })
	return fastSuite
}

func TestTableFormatting(t *testing.T) {
	tab := newTable("x", "demo", "a", "bb")
	tab.addRow("r1", 1.5)
	tab.addRow("longer-cell", 2)
	out := tab.String()
	for _, want := range []string{"== x — demo ==", "a", "bb", "r1", "1.500", "longer-cell"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if tab.Get("r1", "bb") != 1.5 || tab.Get("longer-cell", "bb") != 2 {
		t.Fatal("Get wrong")
	}
	if !tab.Has("r1", "bb") || tab.Has("zz", "bb") || tab.Has("r1", "a") {
		t.Fatal("Has wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Get of unknown key did not panic")
		}
	}()
	tab.Get("zz", "bb")
}

// TestAggregateReportsMissingRows: an aggregate cell is the mean ± s.e. of
// the seeds' cells at the cell's precision (a count to one decimal), a row
// every seed has keeps its place, and a row some seed lacks is named in a
// note and left out rather than averaged over the seeds that have it.
func TestAggregateReportsMissingRows(t *testing.T) {
	var tabs []*Table
	for i, f1 := range []float64{0.4, 0.5, 0.9} {
		tab := newTable("x", "demo", "workload", "F1", "pages")
		tab.addRow("t18", f1, 10+i)
		if i != 1 {
			tab.addRow("t91", f1, 7)
		}
		tabs = append(tabs, tab)
	}
	agg, notes := Aggregate([]uint64{7, 8, 9}, tabs)
	out := agg.String()
	for _, want := range []string{"== x — demo (mean ± s.e., seeds 7–9) ==", "0.600 ± 0.153", "11.0 ± 0.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("aggregate missing %q:\n%s", want, out)
		}
	}
	if agg.Get("t18", "F1") != (0.4+0.5+0.9)/3 || agg.Has("t91", "F1") || len(agg.Rows) != 1 {
		t.Errorf("aggregate values %v, rows %v: want t18's mean only", agg.Values, agg.Rows)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], `"t91"`) || !strings.Contains(notes[0], "seed 8") {
		t.Errorf("notes %q: want one naming t91 at seed 8", notes)
	}
}

// One fresh fast suite run over the whole registry in Names() order, the
// order pythia-experiments prints it: TestFastSuiteGolden reads its tables
// and TestEachWorkloadTrainedOnce what it built.
var (
	fastRunOnce   sync.Once
	fastRunSuite  *Suite
	fastRunTables []*Table
)

func fastRun(t *testing.T) (*Suite, []*Table) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	fastRunOnce.Do(func() {
		fastRunSuite = NewSuite(Fast())
		for _, id := range Names() {
			fastRunTables = append(fastRunTables, Registry[id](fastRunSuite))
		}
	})
	return fastRunSuite, fastRunTables
}

// TestFastSuiteGolden pins every experiment's printed table: a fresh fast
// suite runs the registry in Names() order, and the tables must match
// testdata/fast.golden byte for byte.
// Every cell but a row's label must also read back: Get of
// its row label and column header, printed at the cell's own precision, is
// the cell. Regenerate with UPDATE_GOLDEN=1.
func TestFastSuiteGolden(t *testing.T) {
	_, tabs := fastRun(t)
	var b strings.Builder
	for _, tab := range tabs {
		id := tab.ID
		for _, row := range tab.Rows {
			for i, cell := range row[1:] {
				col := tab.Columns[i+1]
				if !tab.Has(row[0], col) {
					t.Errorf("%s: %s/%s prints %q but does not read back", id, row[0], col, cell)
					continue
				}
				prec := 0
				if dot := strings.IndexByte(cell, '.'); dot >= 0 {
					prec = len(cell) - dot - 1
				}
				if got := fmt.Sprintf("%.*f", prec, tab.Get(row[0], col)); got != cell {
					t.Errorf("%s: %s/%s prints %q but reads back as %s", id, row[0], col, cell, got)
				}
			}
		}
		b.WriteString(tab.String())
		b.WriteByte('\n')
	}
	got := b.String()

	path := filepath.Join("testdata", "fast.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("fast-suite tables diverged from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSuiteOrderIndependent runs the registry backwards and then forwards
// again on one fresh fast suite, and every table must still equal its block
// in testdata/fast.golden: a table depends on what its experiment computes,
// not on which experiment trained a shared workload first, and no experiment
// may mutate a workload that another run is handed.
func TestSuiteOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "fast.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, block := range strings.SplitAfter(string(golden), "\n\n") {
		if f := strings.Fields(block); len(f) > 1 {
			want[f[1]] = block
		}
	}
	s := NewSuite(Fast())
	backward := slices.Clone(Names())
	slices.Reverse(backward)
	for pass, ids := range [][]string{backward, Names()} {
		for _, id := range ids {
			tab, err := s.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.String() + "\n"; got != want[id] {
				t.Errorf("pass %d: %s diverged from golden\n--- got ---\n%s--- want ---\n%s", pass+1, id, got, want[id])
			}
		}
	}
}

// TestEachWorkloadTrainedOnce counts what the suite builds. A full fast run
// trains 18 distinct workloads over four databases (DSB at SF 2, 4 and 8,
// and IMDB), and one experiment builds only the database it uses. Every
// experiment trains with the same options, so an ablation row that varies
// nothing is the main experiments' training and prints their number.
func TestEachWorkloadTrainedOnce(t *testing.T) {
	s, tabs := fastRun(t)
	if s.trainings != 18 || s.builds != 4 {
		t.Errorf("full run: %d trainings over %d databases, want 18 over 4", s.trainings, s.builds)
	}
	byID := map[string]*Table{}
	for _, tab := range tabs {
		byID[tab.ID] = tab
	}
	f5, f6 := byID["fig5"], byID["fig6"]
	for _, c := range []struct {
		id, row, col string
		want         float64
	}{
		{"fig12a", fmt.Sprintf("SF%d", s.cfg.Scale), "mean F1", f5.Get("t18", "Pythia mean F1")},
		{"fig12b", "100%", "mean F1", f5.Get("t18", "Pythia mean F1")},
		{"fig12d", "separate", "mean F1", f5.Get("t18", "Pythia mean F1")},
		{"fig12h", "full", "speedup", f6.Get("t18", "Pythia")},
		{"ext-serialization", "multi-resolution (8/32/128)", "mean F1", f5.Get("t91", "Pythia mean F1")},
	} {
		if got := byID[c.id].Get(c.row, c.col); got != c.want {
			t.Errorf("%s %s/%s = %v, want the main experiments' %v", c.id, c.row, c.col, got, c.want)
		}
	}

	s = NewSuite(Fast())
	if _, err := s.Run("fig12b"); err != nil {
		t.Fatal(err)
	}
	if s.trainings != 5 || s.builds != 1 || s.dbs[s.home("t18")] == nil {
		t.Errorf("fig12b alone: %d trainings over %d databases %v, want 5 over the DSB one", s.trainings, s.builds, s.dbs)
	}
}

func TestRegistryComplete(t *testing.T) {
	// One entry per paper artifact but Figure 9, whose sequence-model baseline
	// was deleted: Table 1, Figures 1, 5–8, 10–11, 12a–h, 13a–d.
	want := []string{
		"table1", "fig1", "fig5", "fig6", "fig7", "fig8",
		"fig10", "fig11",
		"fig12a", "fig12b", "fig12c", "fig12d", "fig12e", "fig12f", "fig12g", "fig12h",
		"fig13a", "fig13b", "fig13c", "fig13d",
		"ext-drift", "ext-serialization", "ext-scheduler", "ext-chaos",
	}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Registry), len(want))
	}
	for _, id := range want {
		if Registry[id] == nil {
			t.Fatalf("experiment %s missing", id)
		}
	}
	if len(Names()) != len(want) {
		t.Fatal("Names() incomplete")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	s := NewSuite(Fast())
	if _, err := s.Run("nope"); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestTable1Regimes(t *testing.T) {
	s := testSuite(t)
	tab := s.Table1()
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 1 rows = %d", len(tab.Rows))
	}
	// T91's fact is the smallest: lowest sequential IO among DSB templates.
	if !(tab.Get("t91", "seq IO") < tab.Get("t18", "seq IO") &&
		tab.Get("t18", "seq IO") < tab.Get("t19", "seq IO")) {
		t.Fatalf("sequential IO ordering wrong:\n%s", tab)
	}
	// Plan-count ordering: t18 ≥ t19 > t91 (21/8/2 in the paper).
	if !(tab.Get("t18", "distinct plans") >= tab.Get("t19", "distinct plans") &&
		tab.Get("t19", "distinct plans") > tab.Get("t91", "distinct plans")) {
		t.Fatalf("plan ordering wrong:\n%s", tab)
	}
	if tab.Get("imdb1a", "relations joined") != 9 || tab.Get("t91", "relations joined") != 7 {
		t.Fatalf("relation counts wrong:\n%s", tab)
	}
}

func TestFigure1Shape(t *testing.T) {
	s := testSuite(t)
	tab := s.Figure1()
	for _, tpl := range s.Templates() {
		seq, nonseq := tab.Get(tpl, "seq-only speedup"), tab.Get(tpl, "non-seq-only speedup")
		if nonseq <= seq {
			t.Fatalf("%s: non-seq prefetch (%.2fx) should beat seq prefetch (%.2fx)\n%s",
				tpl, nonseq, seq, tab)
		}
		if seq > 2 {
			t.Fatalf("%s: seq-only prefetch speedup %.2fx implausibly high\n%s", tpl, seq, tab)
		}
	}
}

func TestFigure5And6Shape(t *testing.T) {
	s := testSuite(t)
	f5 := s.Figure5()
	for _, tpl := range append(s.Templates(), "imdb1a") {
		py, nn := f5.Get(tpl, "Pythia mean F1"), f5.Get(tpl, "NN mean F1")
		if py <= 0.05 {
			t.Fatalf("%s: Pythia F1 %.3f ~ zero\n%s", tpl, py, f5)
		}
		// Pythia is comparable to the idealized NN (the paper's claim);
		// allow it to trail the oracle-ish baseline but not collapse. The
		// IMDB workload at fast-suite scale trains on a handful of highly
		// heterogeneous instances, so only the DSB templates carry the
		// comparability assertion here (the default-scale harness covers
		// IMDB).
		if tpl != "imdb1a" && py < nn*0.3 {
			t.Fatalf("%s: Pythia F1 %.3f far below NN %.3f\n%s", tpl, py, nn, f5)
		}
	}
	f6 := s.Figure6()
	for _, tpl := range s.Templates() {
		if f6.Get(tpl, "Pythia") < 1.0 {
			t.Fatalf("%s: Pythia slowdown\n%s", tpl, f6)
		}
		if f6.Get(tpl, "ORCL") < 1.0 {
			t.Fatalf("%s: oracle slowdown\n%s", tpl, f6)
		}
	}
	// T91 gets the largest oracle speedup (highest non-seq fraction).
	if f6.Get("t91", "ORCL") < f6.Get("t19", "ORCL") {
		t.Fatalf("t91 should outgain t19:\n%s", f6)
	}
}

func TestFigure7Shape(t *testing.T) {
	s := testSuite(t)
	tab := s.Figure7()
	// High-similarity bucket should not be worse than the low bucket where
	// both exist (the paper's headline trend).
	for _, tpl := range s.Templates() {
		low, high := tab.Get(tpl, "low 25%"), tab.Get(tpl, "top 25%")
		if math.IsNaN(low) || math.IsNaN(high) {
			continue // tiny test split may leave a bucket empty
		}
		if high+0.25 < low {
			t.Fatalf("%s: high-similarity bucket (%.2f) far below low (%.2f)\n%s", tpl, high, low, tab)
		}
	}
}

func TestFigure10And11Shape(t *testing.T) {
	s := testSuite(t)
	f10 := s.Figure10()
	f11 := s.Figure11()
	for _, tpl := range append(s.Templates(), "imdb1a") {
		for _, col := range []string{"low 25%", "mid 50%", "top 25%"} {
			if v := f10.Get(tpl, col); !math.IsNaN(v) && (v < 0 || v > 1) {
				t.Fatalf("fig10 %s/%s out of range: %f", tpl, col, v)
			}
			if v := f11.Get(tpl, col); !math.IsNaN(v) && v < 0.2 {
				t.Fatalf("fig11 %s/%s implausible speedup: %f", tpl, col, v)
			}
		}
	}
}

func TestFigure12Ablations(t *testing.T) {
	s := testSuite(t)

	a := s.Figure12a()
	for _, sf := range []string{"SF2", "SF4", "SF8"} {
		if v := a.Get(sf, "mean F1"); v <= 0 || v > 1 {
			t.Fatalf("fig12a %s F1 = %f", sf, v)
		}
	}

	b := s.Figure12b()
	if b.Get("100%", "mean F1") < b.Get("10%", "mean F1")-0.15 {
		t.Fatalf("more training data should not hurt:\n%s", b)
	}

	c := s.Figure12c()
	if c.Get("homogeneous", "t18 F1") <= 0 {
		t.Fatalf("fig12c degenerate:\n%s", c)
	}

	d := s.Figure12d()
	if d.Get("separate", "mean F1") <= 0 || d.Get("combined", "mean F1") <= 0 {
		t.Fatalf("fig12d degenerate:\n%s", d)
	}

	e := s.Figure12e()
	for _, pol := range []string{"clock", "lru", "mru"} {
		if e.Get(pol, "speedup") < 0.5 {
			t.Fatalf("fig12e %s speedup collapsed:\n%s", pol, e)
		}
	}

	f := s.Figure12f()
	if f.Get("x2", "speedup") < f.Get("x0.25", "speedup")*0.7 {
		t.Fatalf("larger buffers should not hurt substantially:\n%s", f)
	}

	g := s.Figure12g()
	if g.Get("4096", "speedup") < g.Get("16", "speedup")*0.7 {
		t.Fatalf("larger windows should not hurt substantially:\n%s", g)
	}

	h := s.Figure12h()
	if h.Get("full", "speedup") < h.Get("top 25%", "speedup")*0.8 {
		t.Fatalf("full prediction should not trail top-25%% substantially:\n%s", h)
	}
	// Top k is the workload's k pages: the heads hold at most k together.
	full := h.Get("full", "labels")
	for _, c := range []struct {
		row   string
		share float64
	}{{"top 25%", 0.25}, {"top 50%", 0.5}, {"top 75%", 0.75}} {
		if got := h.Get(c.row, "labels"); got == 0 || got > math.Floor(full*c.share) {
			t.Fatalf("fig12h %s keeps %v of %v labels:\n%s", c.row, got, full, h)
		}
	}
}

func TestFigure13MultiQuery(t *testing.T) {
	s := testSuite(t)

	a := s.Figure13a()
	if a.Get("mean", "Pythia") < 0.8 {
		t.Fatalf("fig13a Pythia regressed badly:\n%s", a)
	}
	if a.Get("mean", "ORCL") < 0.9 {
		t.Fatalf("fig13a oracle regressed:\n%s", a)
	}

	b := s.Figure13b()
	c := s.Figure13c()
	d := s.Figure13d()
	for _, tab := range []*Table{b, c} {
		for _, n := range []string{"1", "2", "4", "8"} {
			if tab.Get(n, "speedup") < 0.5 {
				t.Fatalf("%s concurrency %s collapsed:\n%s", tab.ID, n, tab)
			}
		}
	}
	for _, o := range []string{"25%", "50%", "75%", "100%"} {
		if d.Get(o, "speedup") < 0.5 {
			t.Fatalf("fig13d overlap %s collapsed:\n%s", o, d)
		}
	}
}

func TestExtensionsRun(t *testing.T) {
	s := testSuite(t)

	d := s.ExtDrift()
	if d.Has("future queries (drifted)", "mean F1") {
		past := d.Get("past queries (in distribution)", "mean F1")
		before := d.Get("future queries (drifted)", "mean F1")
		after := d.Get("future queries after incremental update", "mean F1")
		// Drift hurts relative to in-distribution queries, and the
		// incremental update must not make the drifted queries worse.
		if before > past+0.2 {
			t.Fatalf("drifted F1 (%.2f) unexpectedly above in-distribution (%.2f)\n%s", before, past, d)
		}
		if after < before-0.1 {
			t.Fatalf("incremental update degraded drifted F1: %.2f -> %.2f\n%s", before, after, d)
		}
	}

	sch := s.ExtScheduler()
	if sch.Get("pythia-scheduled", "total latency speedup vs arrival order") < 0.7 {
		t.Fatalf("scheduling regressed badly:\n%s", sch)
	}
	if sch.Get("pythia-scheduled", "chain overlap")+1e-9 < sch.Get("arrival order", "chain overlap") {
		t.Fatalf("greedy schedule has lower chain overlap than arrival order:\n%s", sch)
	}

	a := s.ExtSerializationAblation()
	multi := a.Get("multi-resolution (8/32/128)", "mean F1")
	if multi <= 0 {
		t.Fatalf("multi-resolution F1 degenerate:\n%s", a)
	}
	for _, single := range []string{"single coarse (8)", "single fine (128)"} {
		if v := a.Get(single, "mean F1"); v < 0 || v > 1 {
			t.Fatalf("%s F1 out of range:\n%s", single, a)
		}
	}
}

func TestExtChaosDegradesGracefully(t *testing.T) {
	s := testSuite(t)
	tab := s.ExtChaos()

	rates := []string{"0%", "1%", "5%", "20%"}
	var speedups []float64
	for _, r := range rates {
		v := tab.Get(r, "speedup")
		if v < 0.97 {
			t.Fatalf("rate %s fell below the no-prefetch baseline (%.3f):\n%s", r, v, tab)
		}
		speedups = append(speedups, v)
	}
	// Degradation is monotone toward the baseline, within replay noise.
	for i := 1; i < len(speedups); i++ {
		if speedups[i] > speedups[i-1]*1.10 {
			t.Fatalf("speedup rose with the fault rate (%s: %.3f -> %s: %.3f):\n%s",
				rates[i-1], speedups[i-1], rates[i], speedups[i], tab)
		}
	}
	if speedups[len(speedups)-1] >= speedups[0] {
		t.Fatalf("20%% faults cost nothing (%.3f vs %.3f at 0%%):\n%s",
			speedups[len(speedups)-1], speedups[0], tab)
	}
	// The degradation ladder was actually exercised at the top rate. A page
	// is abandoned only after every retry failed, which at 20 % is about one
	// page per run — present or absent by the luck of the draw, and the draw
	// moves whenever the predictions do — so the lower rungs are checked at
	// a rate where they are certain.
	if tab.Get("20%", "retries") == 0 {
		t.Fatalf("no retries at 20%% faults:\n%s", tab)
	}
	chaos := s.system("t91").WithFault(fault.New(fault.Plan{PrefetchReadRate: 0.6}, s.cfg.Seed+77))
	res := chaos.Run(s.speedupSample("t91"), nil, chaos.Prefetch)
	if res.PrefetchAbandons == 0 || res.FallbackSyncReads == 0 {
		t.Fatalf("60%% faults: %d abandons, %d fallback reads, want both above zero", res.PrefetchAbandons, res.FallbackSyncReads)
	}
}
