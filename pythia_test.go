package pythia_test

import (
	"bytes"
	"testing"

	"github.com/pythia-db/pythia"
)

// TestPublicAPI exercises the facade end to end at tiny scale: build,
// trace, train, predict, score, replay, persist.
func TestPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end API test in -short mode")
	}
	gen := pythia.NewDSB(pythia.DSBConfig{ScaleFactor: 6, Seed: 7})
	w := gen.Workload("t91", 30, 1)
	if len(w.Instances) != 30 {
		t.Fatalf("workload built %d instances", len(w.Instances))
	}
	train, test := w.Split(0.1, 3)

	sys := pythia.New(gen.DB(), pythia.DefaultConfig())
	tw := sys.Train("t91", train)
	if tw.Pred.ParamCount() <= 0 {
		t.Fatal("no parameters trained")
	}

	sawPages := false
	for _, q := range test {
		pages := sys.Prefetch(q)
		if len(pages) > 0 {
			sawPages = true
		}
		f1 := pythia.F1(pages, q.Pages)
		if f1 < 0 || f1 > 1 {
			t.Fatalf("F1 out of range: %f", f1)
		}
		if sp := sys.SpeedupColdCache(q, sys.Prefetch); sp <= 0 {
			t.Fatalf("speedup %f", sp)
		}
		// Baselines compose with the same PrefetchFunc shape.
		if sp := sys.SpeedupColdCache(q, pythia.Oracle); sp < 1 {
			t.Fatalf("oracle slowdown: %f", sp)
		}
	}
	if !sawPages {
		t.Fatal("no test query produced predictions")
	}

	// Persistence round-trips through the facade types.
	var buf bytes.Buffer
	if err := sys.SaveWorkload("t91", &buf); err != nil {
		t.Fatal(err)
	}
	sys2 := pythia.New(gen.DB(), pythia.DefaultConfig())
	if _, err := sys2.LoadWorkload(&buf); err != nil {
		t.Fatal(err)
	}
	for _, q := range test[:1] {
		a, b := sys.Prefetch(q), sys2.Prefetch(q)
		if len(a) != len(b) {
			t.Fatal("loaded system predicts differently")
		}
	}
}

func TestFacadeConstructors(t *testing.T) {
	if cfg := pythia.DefaultConfig(); cfg.Window == 0 {
		t.Fatal("default config empty")
	}
	if pc := pythia.PaperModelConfig(); pc.Dim != 100 || pc.Heads != 10 {
		t.Fatalf("paper config wrong: %+v", pc)
	}
	if len(pythia.ExperimentNames()) < 21 {
		t.Fatal("experiment registry incomplete")
	}
	if gen := pythia.NewIMDB(pythia.IMDBConfig{Scale: 5, Seed: 1}); gen.CastInfo() == nil {
		t.Fatal("IMDB generator broken")
	}
}
