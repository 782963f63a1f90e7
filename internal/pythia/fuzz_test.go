package pythia

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/workload"
)

const fuzzCorpus = "testdata/fuzz/FuzzLoadSystem"

// fuzzSystem trains the smallest system that still predicts something — the
// fuzzer loads mutations of its snapshot thousands of times a second — and
// returns it with an instance to probe loaded systems with.
func fuzzSystem(t testing.TB) (*System, *workload.Instance) {
	t.Helper()
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 2, Seed: 7})
	w := g.Workload("t91", 5, 1)
	cfg := testConfig()
	cfg.Predictor.TopK = 4
	cfg.Predictor.Model.Dim = 4
	cfg.Predictor.Model.FFHidden = 4
	cfg.Predictor.Model.DecoderHidden = 4
	cfg.Predictor.Model.Epochs = 2
	// Below the sigmoid of the decoder's initial bias, so two epochs of
	// training still predict pages to compare.
	cfg.Predictor.Model.Threshold = 0.1
	s := New(g.DB(), cfg)
	// TrainTime is the snapshot's one wall-clock field.
	s.Train("t91", w.Instances[:4]).Pred.TrainTime = 0
	return s, w.Instances[4]
}

// reseal frames data's payload bytes again (all of data when it is too short
// to be a frame), so a mutation of a snapshot's payload arrives with the
// length and CRC that let it through to gob and FromState.
func reseal(t testing.TB, data []byte) []byte {
	if len(data) >= 20 {
		data = data[16 : len(data)-4]
	}
	return sealed(t, data)
}

// fuzzSeeds is what the committed corpus holds: one valid snapshot, its
// truncations, and documents mutated below the envelope and sealed again.
func fuzzSeeds(t testing.TB, s *System) map[string][]byte {
	t.Helper()
	valid := forgedSnapshot(t, s, func(*persistedSystem) {})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	seeds := map[string][]byte{
		"valid":            valid,
		"empty":            {},
		"cut-in-header":    valid[:7],
		"cut-after-header": valid[:16],
		"cut-in-payload":   valid[:len(valid)/2],
		"previous-version": append([]byte("PYSNAP02"), valid[8:16]...),
		"length-wraps":     append(bytes.Clone(valid[:8]), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFC),
		"payload-flipped":  reseal(t, flipped),
		"payload-cut":      reseal(t, valid[:len(valid)/2]),
		"payload-not-gob":  sealed(t, []byte("not a gob document")),
		"no-workloads":     forgedSnapshot(t, s, func(doc *persistedSystem) { doc.Workloads = nil }),
	}
	for name, forge := range map[string]func(*predictor.State){
		"heads-5":        func(p *predictor.State) { p.Trunk.Cfg.Heads = 5 },
		"vocab-negative": func(p *predictor.State) { p.Trunk.VocabSize = -1 },
		"dim-huge":       func(p *predictor.State) { p.Trunk.Cfg.Dim, p.Trunk.Cfg.Heads = 1<<40, 1 },
		"coverage-short": func(p *predictor.State) { p.ModelObjs = p.ModelObjs[1:] },
		"threshold-nan":  func(p *predictor.State) { p.Trunk.Cfg.Threshold = math.NaN() },
		"lr-inf":         func(p *predictor.State) { p.Trunk.Cfg.LR = math.Inf(1) },
	} {
		seeds[name] = forgedSnapshot(t, s, func(doc *persistedSystem) { forge(&doc.Workloads[0].Predictor) })
	}
	return seeds
}

// TestFuzzCorpusValidSeedLoads keeps the committed corpus worth starting
// from, and is the tripwire on the format: the committed "valid" seed is a
// PYSNAP03 file written by an earlier build, so a change that stops it
// loading has changed what the payload means and owes the magic a new digit
// (then, or after adding a seed, UPDATE_GOLDEN=1 rewrites the corpus).
func TestFuzzCorpusValidSeedLoads(t *testing.T) {
	s, probe := fuzzSystem(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(fuzzCorpus, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range fuzzSeeds(t, s) {
			entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
			if err := os.WriteFile(filepath.Join(fuzzCorpus, name), []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entry, err := os.ReadFile(filepath.Join(fuzzCorpus, "valid"))
	if err != nil {
		t.Fatalf("missing corpus (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	_, quoted, _ := strings.Cut(strings.TrimSuffix(string(entry), ")\n"), "\n[]byte(")
	data, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("corpus entry is not one []byte literal: %v", err)
	}
	loaded, err := LoadSystem(s.DB, s.Config(), strings.NewReader(data))
	if err != nil {
		t.Fatalf("the committed PYSNAP03 snapshot no longer loads: %v", err)
	}
	if len(loaded.Prefetch(probe)) == 0 {
		t.Fatal("the committed snapshot loads but predicts nothing for its own template")
	}
}

// FuzzLoadSystem owns the snapshot decoder's surface. Any input, as given
// and with its payload sealed again, is either refused whole with a typed
// error or is a system that survives its own Save → LoadSystem predicting
// the same pages: never a panic, never a system alongside an error.
func FuzzLoadSystem(f *testing.F) {
	s, probe := fuzzSystem(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range [][]byte{data, reseal(t, data)} {
			loaded, err := LoadSystem(s.DB, s.Config(), bytes.NewReader(data))
			if err != nil {
				if loaded != nil || !(errors.Is(err, ErrSnapshotCorrupt) || errors.Is(err, ErrSnapshotVersion)) {
					t.Fatalf("LoadSystem = %v, %v; want no system and a typed snapshot error", loaded, err)
				}
				continue
			}
			var saved bytes.Buffer
			if err := loaded.Save(&saved); err != nil {
				t.Fatalf("a loaded system does not save: %v", err)
			}
			again, err := LoadSystem(s.DB, s.Config(), &saved)
			if err != nil {
				t.Fatalf("a loaded system's own snapshot does not load: %v", err)
			}
			if len(again.Workloads()) != len(loaded.Workloads()) {
				t.Fatalf("%d workloads became %d across a round trip", len(loaded.Workloads()), len(again.Workloads()))
			}
			for i, tw := range loaded.Workloads() {
				pa, pb := tw.Pred, again.Workloads()[i].Pred
				if a, b := pa.Predict(probe.Plan, pa.EncodePlan(probe.Plan)), pb.Predict(probe.Plan, pb.EncodePlan(probe.Plan)); !slices.Equal(a, b) {
					t.Fatalf("workload %d predicts %d pages, %d after a round trip", i, len(a), len(b))
				}
			}
			if a, b := loaded.Prefetch(probe), again.Prefetch(probe); !slices.Equal(a, b) {
				t.Fatalf("system prefetches %d pages, %d after a round trip", len(a), len(b))
			}
		}
	})
}
