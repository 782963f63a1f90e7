package model

import (
	"bytes"
	"reflect"
	"testing"
)

// saveLoad round-trips a one-head trunk through Save/LoadTrunk and returns
// the loaded head.
func saveLoad(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.trunk.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrunk(&buf)
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

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadTrunk(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage did not error")
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
