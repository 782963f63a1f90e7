package model

import (
	"testing"

	"github.com/pythia-db/pythia/internal/storage"
)

func pg(o, n uint32) storage.PageID {
	return storage.PageID{Object: storage.ObjectID(o), Page: storage.PageNum(n)}
}

func smallCfg() Config {
	c := DefaultConfig()
	c.Dim = 16
	c.Heads = 2
	c.Layers = 1
	c.DecoderHidden = 32
	c.Epochs = 120
	c.LR = 5e-3
	return c
}

// Two query "types" with disjoint page sets: the model must learn the
// mapping and generalize it to a repeated token pattern.
func trainingFixture() (labels []storage.PageID, samples []Sample) {
	for i := uint32(0); i < 20; i++ {
		labels = append(labels, pg(1, i))
	}
	// Token id 5 ↔ pages {0..4}; token id 9 ↔ pages {10..14}. A shared
	// prefix token 2 plays the role of structural plan tokens.
	for rep := 0; rep < 6; rep++ {
		samples = append(samples,
			Sample{TokenIDs: []int{2, 5, 3}, Pages: []storage.PageID{pg(1, 0), pg(1, 1), pg(1, 2), pg(1, 3), pg(1, 4)}},
			Sample{TokenIDs: []int{2, 9, 3}, Pages: []storage.PageID{pg(1, 10), pg(1, 11), pg(1, 12), pg(1, 13), pg(1, 14)}},
		)
	}
	return labels, samples
}

func TestModelLearnsPageSets(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	loss := m.Train(samples)
	if loss > 0.2 {
		t.Fatalf("training loss did not collapse: %f", loss)
	}
	got := m.Predict([]int{2, 5, 3})
	want := map[storage.PageID]bool{pg(1, 0): true, pg(1, 1): true, pg(1, 2): true, pg(1, 3): true, pg(1, 4): true}
	if len(got) != len(want) {
		t.Fatalf("Predict = %v", got)
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("Predict included wrong page %v", p)
		}
	}
}

func TestPredictReturnsSortedLabels(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	m.Train(samples)
	got := m.Predict([]int{2, 9, 3})
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatalf("predictions not in file-storage order: %v", got)
		}
	}
}

func TestScoresInRange(t *testing.T) {
	labels, _ := trainingFixture()
	m := New(12, labels, smallCfg())
	scores := m.Scores([]int{2, 5, 3})
	if len(scores) != len(labels) {
		t.Fatal("score length mismatch")
	}
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %f out of range", s)
		}
	}
}

func TestTargetsIgnoreForeignPages(t *testing.T) {
	labels := []storage.PageID{pg(1, 0), pg(1, 1)}
	m := New(12, labels, smallCfg())
	tg := m.targets(make([]float64, len(m.Labels)), []storage.PageID{pg(1, 1), pg(2, 7), pg(1, 99)})
	if tg[0] != 0 || tg[1] != 1 {
		t.Fatalf("targets = %v", tg)
	}
}

func TestEmptyLabelSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty label space did not panic")
		}
	}()
	New(12, nil, smallCfg())
}

func TestParamCountPositiveAndScales(t *testing.T) {
	labels := make([]storage.PageID, 50)
	for i := range labels {
		labels[i] = pg(1, uint32(i))
	}
	small := New(12, labels[:10], smallCfg())
	large := New(12, labels, smallCfg())
	if small.ParamCount() <= 0 || large.ParamCount() <= small.ParamCount() {
		t.Fatalf("ParamCount: small=%d large=%d", small.ParamCount(), large.ParamCount())
	}
}

// A combined head's label space spans several objects (a heap, then its
// index): the head keeps that order and learns pages of both.
func TestCombinedLabels(t *testing.T) {
	labels := []storage.PageID{pg(1, 0), pg(1, 1), pg(1, 2), pg(2, 0), pg(2, 1)}
	m := New(12, labels, smallCfg())
	if len(m.Labels) != 5 || m.Labels[0].Object != 1 || m.Labels[4].Object != 2 {
		t.Fatalf("combined order wrong: %v", m.Labels)
	}
	tg := m.targets(make([]float64, len(m.Labels)), []storage.PageID{pg(2, 1), pg(1, 0), pg(3, 0)})
	if tg[0] != 1 || tg[4] != 1 || tg[1]+tg[2]+tg[3] != 0 {
		t.Fatalf("targets = %v", tg)
	}
	var samples []Sample
	for rep := 0; rep < 6; rep++ {
		samples = append(samples,
			Sample{TokenIDs: []int{2, 5, 3}, Pages: []storage.PageID{pg(1, 0), pg(1, 2), pg(2, 1)}},
			Sample{TokenIDs: []int{2, 9, 3}, Pages: []storage.PageID{pg(1, 1), pg(2, 0)}},
		)
	}
	m.Train(samples)
	got := m.Predict([]int{2, 5, 3})
	want := []storage.PageID{pg(1, 0), pg(1, 2), pg(2, 1)}
	if len(got) != len(want) {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Predict = %v, want %v", got, want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := (Config{}).withDefaults()
	if c.Dim == 0 || c.Epochs == 0 || c.LR == 0 || c.Threshold == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	p := PaperConfig()
	if p.Dim != 100 || p.Heads != 10 || p.DecoderHidden != 800 || p.Layers != 2 {
		t.Fatalf("PaperConfig deviates from §5.1: %+v", p)
	}
}
