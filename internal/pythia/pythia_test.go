package pythia

import (
	"testing"

	"github.com/pythia-db/pythia/internal/baselines"
	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/metrics"
	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

func testConfig() Config {
	cfg := DefaultConfig()
	mcfg := model.DefaultConfig()
	mcfg.Dim = 16
	mcfg.Heads = 2
	mcfg.Layers = 1
	mcfg.DecoderHidden = 32
	mcfg.Epochs = 20
	cfg.Predictor = predictor.Options{Model: mcfg}
	cfg.Replay.BufferPages = 1024
	return cfg
}

func testSystem(t *testing.T) (*System, *workload.Workload) {
	t.Helper()
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 8, Seed: 7})
	w := g.Workload("t91", 40, 1)
	s := New(g.DB(), testConfig())
	return s, w
}

func TestTrainAndMatchByTemplate(t *testing.T) {
	s, w := testSystem(t)
	train, test := w.Split(0.1, 3)
	tw := s.Train("t91", train)
	if tw.Pred == nil {
		t.Fatal("no predictor trained")
	}
	if got := s.Match(test[0].Query); got != tw {
		t.Fatal("test query did not match its workload")
	}
	// A query from an unrelated fact does not match (fallback path).
	foreign := plan.Query{Fact: "inventory", Template: "t-unknown"}
	if s.Match(foreign) != nil {
		t.Fatal("unrelated query matched a workload")
	}
}

func TestMatchByRelationSet(t *testing.T) {
	s, w := testSystem(t)
	train, _ := w.Split(0.1, 3)
	tw := s.Train("t91", train)
	// Same relations, no template tag: the Jaccard fallback should match.
	q := w.Instances[0].Query
	q.Template = ""
	if s.Match(q) != tw {
		t.Fatal("relation-set matching failed")
	}
}

func TestPrefetchFallbackForUnknownWorkload(t *testing.T) {
	s, w := testSystem(t)
	train, _ := w.Split(0.1, 3)
	s.Train("t91", train)
	inst := *w.Instances[0]
	inst.Query.Template = "zzz"
	inst.Query.Fact = "inventory"
	inst.Query.Dims = nil
	if got := s.Prefetch(&inst); got != nil {
		t.Fatal("fallback query still got a prefetch set")
	}
}

func TestPythiaSpeedsUpUnseenQueries(t *testing.T) {
	s, w := testSystem(t)
	train, test := w.Split(0.1, 3)
	s.Train("t91", train)

	var speedups, f1s []float64
	for _, inst := range test {
		pred := s.Prefetch(inst)
		f1s = append(f1s, metrics.Score(pred, inst.Pages).F1)
		speedups = append(speedups, s.SpeedupColdCache(inst, s.Prefetch))
	}
	meanF1 := metrics.Summarize(f1s).Mean
	meanSp := metrics.Summarize(speedups).Mean
	if meanF1 < 0.3 {
		t.Fatalf("Pythia unseen F1 = %.3f", meanF1)
	}
	if meanSp < 1.05 {
		t.Fatalf("Pythia speedup = %.2fx, want > 1.05x", meanSp)
	}
	// Oracle bounds Pythia (up to simulation noise).
	var orclSp []float64
	for _, inst := range test {
		orclSp = append(orclSp, s.SpeedupColdCache(inst, baselines.Oracle))
	}
	if metrics.Summarize(orclSp).Mean < meanSp*0.8 {
		t.Fatalf("oracle (%.2fx) should roughly bound Pythia (%.2fx)",
			metrics.Summarize(orclSp).Mean, meanSp)
	}
}

func TestLimitPrefetchBounds(t *testing.T) {
	s, w := testSystem(t)
	var big []storage.PageID
	for _, inst := range w.Instances {
		big = append(big, inst.Pages...)
	}
	if len(big) == 0 {
		// Synthesize pages if the tiny workload produced none.
		for i := 0; i < 8; i++ {
			big = append(big, storage.PageID{Object: 1, Page: storage.PageNum(i)})
		}
	}
	for len(big) < s.cfg.Replay.BufferPages {
		big = append(big, big...)
	}
	limited := s.LimitPrefetch(big)
	budget := int(float64(s.cfg.Replay.BufferPages) * prefetchBufferFraction)
	if len(limited) != budget {
		t.Fatalf("limited prefetch = %d pages, want %d", len(limited), budget)
	}
}

func TestRunArrivalsAndStrategies(t *testing.T) {
	s, w := testSystem(t)
	insts := w.Instances[:3]
	res := s.Run(insts, []sim.Duration{0, 0, 0}, baselines.Oracle)
	if len(res.Queries) != 3 {
		t.Fatalf("results = %d", len(res.Queries))
	}
	for _, q := range res.Queries {
		if q.Elapsed <= 0 {
			t.Fatalf("query %s did not run", q.ID)
		}
	}
	// nil arrivals and nil strategy are both allowed.
	res2 := s.Run(insts, nil, nil)
	if res2.TotalElapsed() <= res.TotalElapsed() {
		t.Fatal("default run should be slower than oracle-prefetched run")
	}
}

func TestConfigDefaults(t *testing.T) {
	s := New(dsb.NewGenerator(dsb.Config{ScaleFactor: 5, Seed: 7}).DB(), Config{})
	cfg := s.Config()
	if cfg.Window != 1024 || cfg.Replay.BufferPages != 2048 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if len(s.Workloads()) != 0 {
		t.Fatal("fresh system has workloads")
	}
}

// TestInferenceDeadlineDegradesToDefault: a missed inference deadline —
// systematic when the infer fault site runs at rate 1 — degrades every
// prefetching query to the default path, timing-identical to running with no
// strategy, and a run with no strategy never draws the site.
func TestInferenceDeadlineDegradesToDefault(t *testing.T) {
	s, w := testSystem(t)
	train, test := w.Split(0.1, 3)
	s.Train("t91", train)
	insts := test[:4]

	// No faults: zero misses.
	if r := s.Run(insts, nil, s.Prefetch); r.InferenceDeadlineMisses != 0 {
		t.Fatalf("clean run recorded %d deadline misses", r.InferenceDeadlineMisses)
	}

	late := s.WithFault(fault.New(fault.Plan{InferenceRate: 1}, 3))
	res := late.Run(insts, nil, late.Prefetch)
	if got := res.InferenceDeadlineMisses; got != uint64(len(insts)) {
		t.Fatalf("deadline misses %d, want %d", got, len(insts))
	}
	if dflt := s.Run(insts, nil, nil); res.TotalElapsed() != dflt.TotalElapsed() {
		t.Fatal("deadline-degraded run is not timing-identical to the default path")
	}
	if r := late.Run(insts, nil, nil); r.InferenceDeadlineMisses != 0 {
		t.Fatal("default-path run drew inference faults")
	}
}
