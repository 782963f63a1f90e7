package experiments

import (
	"math"
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
	tab.set("r1", "v", 1.5)
	out := tab.String()
	for _, want := range []string{"== x — demo ==", "a", "bb", "r1", "1.500", "longer-cell"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if tab.Get("r1", "v") != 1.5 {
		t.Fatal("Get wrong")
	}
	if !tab.Has("r1", "v") || tab.Has("zz", "v") {
		t.Fatal("Has wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Get of unknown key did not panic")
		}
	}()
	tab.Get("zz", "v")
}

func TestRegistryComplete(t *testing.T) {
	// One entry per paper artifact: Table 1, Figures 1, 5–11, 12a–h, 13a–d.
	want := []string{
		"table1", "fig1", "fig5", "fig6", "fig7", "fig8", "fig9",
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
	if !(tab.Get("t91", "seqIO") < tab.Get("t18", "seqIO") &&
		tab.Get("t18", "seqIO") < tab.Get("t19", "seqIO")) {
		t.Fatalf("sequential IO ordering wrong:\n%s", tab)
	}
	// Plan-count ordering: t18 ≥ t19 > t91 (21/8/2 in the paper).
	if !(tab.Get("t18", "plans") >= tab.Get("t19", "plans") &&
		tab.Get("t19", "plans") > tab.Get("t91", "plans")) {
		t.Fatalf("plan ordering wrong:\n%s", tab)
	}
	if tab.Get("imdb1a", "rels") != 9 || tab.Get("t91", "rels") != 7 {
		t.Fatalf("relation counts wrong:\n%s", tab)
	}
}

func TestFigure1Shape(t *testing.T) {
	s := testSuite(t)
	tab := s.Figure1()
	for _, tpl := range s.Templates() {
		seq, nonseq := tab.Get(tpl, "seq"), tab.Get(tpl, "nonseq")
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
		py, nn := f5.Get(tpl, "pythia"), f5.Get(tpl, "nn")
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
		if f6.Get(tpl, "pythia") < 1.0 {
			t.Fatalf("%s: Pythia slowdown\n%s", tpl, f6)
		}
		if f6.Get(tpl, "orcl") < 1.0 {
			t.Fatalf("%s: oracle slowdown\n%s", tpl, f6)
		}
	}
	// T91 gets the largest oracle speedup (highest non-seq fraction).
	if f6.Get("t91", "orcl") < f6.Get("t19", "orcl") {
		t.Fatalf("t91 should outgain t19:\n%s", f6)
	}
}

func TestFigure7Shape(t *testing.T) {
	s := testSuite(t)
	tab := s.Figure7()
	// High-similarity bucket should not be worse than the low bucket where
	// both exist (the paper's headline trend).
	for _, tpl := range s.Templates() {
		low, high := tab.Get(tpl, "low"), tab.Get(tpl, "high")
		if math.IsNaN(low) || math.IsNaN(high) {
			continue // tiny test split may leave a bucket empty
		}
		if high+0.25 < low {
			t.Fatalf("%s: high-similarity bucket (%.2f) far below low (%.2f)\n%s", tpl, high, low, tab)
		}
	}
}

func TestFigure9CostStructure(t *testing.T) {
	s := testSuite(t)
	tab := s.Figure9()
	pyInfer1M := tab.Get("pythia", "infer1m")
	for _, v := range []string{"seq-raw-32", "seq-raw-64", "seq-dedup-32", "seq-dedup-64"} {
		if tab.Get(v, "f1") < 0 || tab.Get(v, "f1") > 1 {
			t.Fatalf("%s F1 out of range\n%s", v, tab)
		}
		// The headline claim: predicting a paper-scale (~1M-block) sequence
		// step by step is orders of magnitude costlier than Pythia's
		// one-shot inference.
		if tab.Get(v, "infer1m") < 50*pyInfer1M {
			t.Fatalf("%s @1M inference (%.1fs) not clearly above Pythia (%.3fs)\n%s",
				v, tab.Get(v, "infer1m"), pyInfer1M, tab)
		}
	}
}

func TestFigure10And11Shape(t *testing.T) {
	s := testSuite(t)
	f10 := s.Figure10()
	f11 := s.Figure11()
	for _, tpl := range append(s.Templates(), "imdb1a") {
		for _, col := range []string{"low", "mid", "high"} {
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
	for _, sf := range []string{"SF25", "SF50", "SF100"} {
		if v := a.Get(sf, "f1"); v <= 0 || v > 1 {
			t.Fatalf("fig12a %s F1 = %f", sf, v)
		}
	}

	b := s.Figure12b()
	if b.Get("100%", "f1") < b.Get("10%", "f1")-0.15 {
		t.Fatalf("more training data should not hurt:\n%s", b)
	}

	c := s.Figure12c()
	if c.Get("homogeneous", "t18") <= 0 {
		t.Fatalf("fig12c degenerate:\n%s", c)
	}

	d := s.Figure12d()
	if d.Get("separate", "f1") <= 0 || d.Get("combined", "f1") <= 0 {
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
}

func TestFigure13MultiQuery(t *testing.T) {
	s := testSuite(t)

	a := s.Figure13a()
	if a.Get("mean", "pythia") < 0.8 {
		t.Fatalf("fig13a Pythia regressed badly:\n%s", a)
	}
	if a.Get("mean", "orcl") < 0.9 {
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
	if d.Has("future-before", "f1") {
		past := d.Get("past", "f1")
		before := d.Get("future-before", "f1")
		after := d.Get("future-after", "f1")
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
	if sch.Get("scheduled", "speedup") < 0.7 {
		t.Fatalf("scheduling regressed badly:\n%s", sch)
	}
	if sch.Get("scheduled", "overlap")+1e-9 < sch.Get("arrival", "overlap") {
		t.Fatalf("greedy schedule has lower chain overlap than arrival order:\n%s", sch)
	}

	a := s.ExtSerializationAblation()
	multi := a.Get("multi-resolution (8/32/128)", "f1")
	if multi <= 0 {
		t.Fatalf("multi-resolution F1 degenerate:\n%s", a)
	}
	for _, single := range []string{"single coarse (8)", "single fine (128)"} {
		if v := a.Get(single, "f1"); v < 0 || v > 1 {
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
	chaos := s.DSBSystem("t91").WithFault(fault.New(fault.Plan{PrefetchReadRate: 0.6}, s.cfg.Seed+77))
	res := chaos.Run(s.speedupSample("t91"), nil, chaos.Prefetch)
	if res.PrefetchAbandons == 0 || res.FallbackSyncReads == 0 {
		t.Fatalf("60%% faults: %d abandons, %d fallback reads, want both above zero", res.PrefetchAbandons, res.FallbackSyncReads)
	}
}
