package model

import (
	"math"
	"reflect"
	"testing"

	"github.com/pythia-db/pythia/internal/storage"
)

// saveLoad round-trips a one-head trunk through State/TrunkFromState and
// returns the rebuilt head.
func saveLoad(t *testing.T, m *Model) *Model {
	t.Helper()
	loaded, err := TrunkFromState(m.trunk.State())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Heads()) != 1 {
		t.Fatalf("loaded %d heads, saved 1", len(loaded.Heads()))
	}
	return loaded.Heads()[0]
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	m.Train(samples)

	loaded := saveLoad(t, m)
	for _, seq := range [][]int{{2, 5, 3}, {2, 9, 3}, {1, 1, 1}} {
		a := m.Predict(seq)
		b := loaded.Predict(seq)
		if len(a) != len(b) {
			t.Fatalf("loaded model differs on %v: %d vs %d pages", seq, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("loaded model differs on %v", seq)
			}
		}
		// Scores match exactly, not just thresholded predictions.
		sa, sb := m.Scores(seq), loaded.Scores(seq)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("loaded scores differ at %d: %v vs %v", i, sa[i], sb[i])
			}
		}
	}
	if loaded.ParamCount() != m.ParamCount() {
		t.Fatal("parameter counts differ after load")
	}
}

// TestTrunkFromStateRejectsInconsistentState: a state may come from a file,
// so an architecture that contradicts itself or its weights is an error —
// the first two cases panicked inside nn before — and is refused before
// anything sized by a forged number is allocated (the 2⁴⁰ cases would need
// terabytes). So is a training config Save never writes: the threshold,
// rate and weight cases loaded before and then predicted nothing, at once
// or after one Update.
func TestTrunkFromStateRejectsInconsistentState(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	m.Train(samples)
	for name, forge := range map[string]func(*TrunkState){
		"heads do not divide dim": func(s *TrunkState) { s.Cfg.Heads = 5 },
		"negative vocabulary":     func(s *TrunkState) { s.VocabSize = -1 },
		"zero layers":             func(s *TrunkState) { s.Cfg.Layers = 0 },
		"huge dim":                func(s *TrunkState) { s.Cfg.Dim = 1 << 40; s.Cfg.Heads = 1 },
		"huge layer count":        func(s *TrunkState) { s.Cfg.Layers = 1 << 40 },
		"huge decoder":            func(s *TrunkState) { s.Cfg.DecoderHidden = 1 << 62 },
		"vocabulary off by one":   func(s *TrunkState) { s.VocabSize++ },
		"empty label space":       func(s *TrunkState) { s.Heads[0].Labels = nil },
		"missing tensor":          func(s *TrunkState) { s.Encoder = s.Encoder[1:] },
		"renamed tensor":          func(s *TrunkState) { s.Encoder[3].Name = "enc.l0.attn.nope" },
		"tensors swapped in size": func(s *TrunkState) { s.Encoder[1].W, s.Encoder[2].W = s.Encoder[2].W, s.Encoder[1].W },
		"no heads, head weights":  func(s *TrunkState) { s.Encoder = append(s.Encoder, s.Heads[0].Decoder...); s.Heads = nil },
		"threshold NaN":           func(s *TrunkState) { s.Cfg.Threshold = math.NaN() },
		"threshold above one":     func(s *TrunkState) { s.Cfg.Threshold = 2 },
		"learning rate NaN":       func(s *TrunkState) { s.Cfg.LR = math.NaN() },
		"positive weight +Inf":    func(s *TrunkState) { s.Cfg.PosWeight = math.Inf(1) },
	} {
		s := m.trunk.State()
		s.Encoder = append([]tensor(nil), s.Encoder...)
		s.Heads = append([]headState(nil), s.Heads...)
		forge(&s)
		if trunk, err := TrunkFromState(s); err == nil || trunk != nil {
			t.Errorf("%s: TrunkFromState = %v, %v; want an error and no trunk", name, trunk, err)
		}
	}
}

// TestStateRoundTripAcrossArchitectures ties the weight count TrunkFromState
// derives from a state's architecture to what the nn constructors really
// allocate: were the two to disagree, no state would load.
func TestStateRoundTripAcrossArchitectures(t *testing.T) {
	labels, _ := trainingFixture()
	for _, cfg := range []Config{
		smallCfg(),
		{Dim: 12, Heads: 3, Layers: 12, FFHidden: 7, DecoderHidden: 5},
		PaperConfig(),
	} {
		trunk := NewTrunk(9, [][]storage.PageID{labels, labels[:1]}, cfg)
		loaded, err := TrunkFromState(trunk.State())
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !reflect.DeepEqual(loaded.State(), trunk.State()) {
			t.Errorf("%+v: state changed across a round trip", cfg)
		}
	}
}

func TestLoadedModelTrainsIncrementally(t *testing.T) {
	labels, samples := trainingFixture()
	cfg := smallCfg()
	cfg.Epochs = 40
	m := New(12, labels, cfg)
	m.Train(samples[:4])

	loaded := saveLoad(t, m)
	// Incremental training on the rest of the data must run (and not panic
	// on the reset optimizer state) and keep predictions sane.
	loss := loaded.TrainIncremental(samples, 60)
	if loss < 0 {
		t.Fatalf("negative loss %f", loss)
	}
	got := loaded.Predict([]int{2, 5, 3})
	if len(got) == 0 {
		t.Fatal("incrementally trained model predicts nothing")
	}
}

func TestTrainIncrementalDefaultEpochs(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	m.Train(samples)
	// epochs <= 0 falls back to a quarter of the configured budget: the
	// same weights as asking for that many epochs outright.
	twin := New(12, labels, smallCfg())
	twin.Train(samples)
	m.TrainIncremental(samples[:2], 0)
	twin.TrainIncremental(samples[:2], smallCfg().Epochs/4)
	if !reflect.DeepEqual(m.Scores([]int{2, 5, 3}), twin.Scores([]int{2, 5, 3})) {
		t.Fatal("epochs 0 did not train a quarter of the configured budget")
	}
	if m.trunk.cfg.Epochs != smallCfg().Epochs {
		t.Fatal("TrainIncremental changed the configured epoch budget")
	}
}
