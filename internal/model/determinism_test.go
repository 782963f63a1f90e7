package model

import (
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/nn"
)

// TestTrainBitwiseRepeatable is the reproducibility contract at the model
// level: training the same model twice produces byte-identical loss and
// parameters.
func TestTrainBitwiseRepeatable(t *testing.T) {
	labels, samples := trainingFixture()
	cfg := smallCfg()
	cfg.Epochs = 8

	train := func() (float64, map[string][]float64) {
		m := New(12, labels, cfg)
		loss := m.Train(samples)
		return loss, nn.Snapshot(m.trunk.params(m.trunk.heads))
	}

	refLoss, refSnap := train()
	loss, snap := train()
	if math.Float64bits(loss) != math.Float64bits(refLoss) {
		t.Fatalf("loss %v, want %v (bitwise)", loss, refLoss)
	}
	if len(snap) != len(refSnap) {
		t.Fatalf("%d params, want %d", len(snap), len(refSnap))
	}
	for name, want := range refSnap {
		got, ok := snap[name]
		if !ok {
			t.Fatalf("missing param %s", name)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("param %s[%d] = %v, want %v (bitwise)", name, i, got[i], want[i])
			}
		}
	}
}

// TestPredictBitwiseRepeatable extends the contract to inference: two
// models trained alike score a sequence bit for bit alike.
func TestPredictBitwiseRepeatable(t *testing.T) {
	labels, samples := trainingFixture()
	cfg := smallCfg()
	cfg.Epochs = 8

	score := func() []float64 {
		m := New(12, labels, cfg)
		m.Train(samples)
		return m.Scores([]int{2, 5, 3})
	}

	want := score()
	got := score()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("score[%d] = %v on the first run, %v on the second", i, want[i], got[i])
		}
	}
}
