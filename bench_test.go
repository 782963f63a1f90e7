package pythia_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"github.com/pythia-db/pythia"
)

// The benchmark harness regenerates every table and figure of the paper's
// evaluation but Figure 9, whose sequence baseline is gone. One benchmark per
// artifact; each prints its result table the first time it runs, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation and its numbers. Set PYTHIA_BENCH=full to
// run at the default (paper-shaped) scale instead of the CI scale.
var (
	suiteOnce  sync.Once
	benchSuite *pythia.ExperimentSuite
	printed    sync.Map
)

func sharedSuite() *pythia.ExperimentSuite {
	suiteOnce.Do(func() {
		cfg := pythia.FastExperimentConfig()
		if os.Getenv("PYTHIA_BENCH") == "full" {
			cfg = pythia.DefaultExperimentConfig()
		}
		benchSuite = pythia.NewExperiments(cfg)
	})
	return benchSuite
}

// runExperiment executes an experiment once per benchmark iteration and
// reports the key figure-of-merit metrics.
func runExperiment(b *testing.B, id string, metrics map[string][2]string) {
	b.Helper()
	s := sharedSuite()
	var tab *pythia.ResultTable
	for i := 0; i < b.N; i++ {
		t, err := s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		tab = t
	}
	if _, dup := printed.LoadOrStore(id, true); !dup {
		fmt.Println(tab.String())
	}
	for name, key := range metrics {
		if !tab.Has(key[0], key[1]) {
			b.Fatalf("%s prints no %s/%s (metric %s)", id, key[0], key[1], name)
		}
		b.ReportMetric(tab.Get(key[0], key[1]), name)
	}
}

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "table1", map[string][2]string{
		"t91-plans": {"t91", "distinct plans"},
		"t18-plans": {"t18", "distinct plans"},
	})
}

func BenchmarkFigure1(b *testing.B) {
	runExperiment(b, "fig1", map[string][2]string{
		"t91-nonseq-speedup": {"t91", "non-seq-only speedup"},
		"t91-seq-speedup":    {"t91", "seq-only speedup"},
	})
}

func BenchmarkFigure5(b *testing.B) {
	runExperiment(b, "fig5", map[string][2]string{
		"t91-pythia-f1": {"t91", "Pythia mean F1"},
		"t91-nn-f1":     {"t91", "NN mean F1"},
	})
}

func BenchmarkFigure6(b *testing.B) {
	runExperiment(b, "fig6", map[string][2]string{
		"t91-pythia-speedup": {"t91", "Pythia"},
		"t91-orcl-speedup":   {"t91", "ORCL"},
	})
}

func BenchmarkFigure7(b *testing.B) {
	runExperiment(b, "fig7", map[string][2]string{
		"t18-high-f1": {"t18", "top 25%"},
	})
}

func BenchmarkFigure8(b *testing.B) {
	runExperiment(b, "fig8", map[string][2]string{
		"t18-high-speedup": {"t18", "top 25%"},
	})
}

func BenchmarkFigure10(b *testing.B) {
	runExperiment(b, "fig10", map[string][2]string{
		"t91-high-f1": {"t91", "top 25%"},
	})
}

func BenchmarkFigure11(b *testing.B) {
	runExperiment(b, "fig11", map[string][2]string{
		"t91-high-speedup": {"t91", "top 25%"},
	})
}

func BenchmarkFigure12a(b *testing.B) {
	runExperiment(b, "fig12a", map[string][2]string{
		"sf25-f1":  {"SF25", "mean F1"},
		"sf100-f1": {"SF100", "mean F1"},
	})
}

func BenchmarkFigure12b(b *testing.B) {
	runExperiment(b, "fig12b", map[string][2]string{
		"10pct-f1":  {"10%", "mean F1"},
		"100pct-f1": {"100%", "mean F1"},
	})
}

func BenchmarkFigure12c(b *testing.B) {
	runExperiment(b, "fig12c", map[string][2]string{
		"homogeneous-t18-f1":   {"homogeneous", "t18 F1"},
		"heterogeneous-t18-f1": {"heterogeneous", "t18 F1"},
	})
}

func BenchmarkFigure12d(b *testing.B) {
	runExperiment(b, "fig12d", map[string][2]string{
		"separate-f1": {"separate", "mean F1"},
		"combined-f1": {"combined", "mean F1"},
	})
}

func BenchmarkFigure12e(b *testing.B) {
	runExperiment(b, "fig12e", map[string][2]string{
		"clock-speedup": {"clock", "speedup"},
		"lru-speedup":   {"lru", "speedup"},
		"mru-speedup":   {"mru", "speedup"},
	})
}

func BenchmarkFigure12f(b *testing.B) {
	runExperiment(b, "fig12f", map[string][2]string{
		"quarter-buffer-speedup": {"x0.25", "speedup"},
		"double-buffer-speedup":  {"x2", "speedup"},
	})
}

func BenchmarkFigure12g(b *testing.B) {
	runExperiment(b, "fig12g", map[string][2]string{
		"window16-speedup":   {"16", "speedup"},
		"window1024-speedup": {"1024", "speedup"},
	})
}

func BenchmarkFigure12h(b *testing.B) {
	runExperiment(b, "fig12h", map[string][2]string{
		"top25-speedup": {"top 25%", "speedup"},
		"full-speedup":  {"full", "speedup"},
	})
}

func BenchmarkFigure13a(b *testing.B) {
	runExperiment(b, "fig13a", map[string][2]string{
		"pythia-speedup": {"mean", "Pythia"},
		"orcl-speedup":   {"mean", "ORCL"},
	})
}

func BenchmarkFigure13b(b *testing.B) {
	runExperiment(b, "fig13b", map[string][2]string{
		"concurrency8-speedup": {"8", "speedup"},
	})
}

func BenchmarkFigure13c(b *testing.B) {
	runExperiment(b, "fig13c", map[string][2]string{
		"concurrency8-speedup": {"8", "speedup"},
	})
}

func BenchmarkFigure13d(b *testing.B) {
	runExperiment(b, "fig13d", map[string][2]string{
		"overlap100-speedup": {"100%", "speedup"},
	})
}

func BenchmarkExtDrift(b *testing.B) {
	runExperiment(b, "ext-drift", map[string][2]string{
		"future-before-f1": {"future queries (drifted)", "mean F1"},
		"future-after-f1":  {"future queries after incremental update", "mean F1"},
	})
}

func BenchmarkExtSerialization(b *testing.B) {
	runExperiment(b, "ext-serialization", map[string][2]string{
		"multi-resolution-f1": {"multi-resolution (8/32/128)", "mean F1"},
	})
}

func BenchmarkExtScheduler(b *testing.B) {
	runExperiment(b, "ext-scheduler", map[string][2]string{
		"scheduled-speedup": {"pythia-scheduled", "total latency speedup vs arrival order"},
		"scheduled-overlap": {"pythia-scheduled", "chain overlap"},
	})
}
