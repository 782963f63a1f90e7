package model

import (
	"reflect"
	"testing"

	"github.com/pythia-db/pythia/internal/storage"
)

// TestPredictBatchMatchesPredict: batching is a pure execution-shape change
// — every sequence's prediction set must equal the single-shot path exactly
// (the batched decoder preserves the serial accumulation order per row).
func TestPredictBatchMatchesPredict(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	m.Train(samples)

	seqs := [][]int{{2, 5, 3}, {2, 9, 3}, {2, 5, 3}, {2, 9, 3, 3}}
	want := make([][]storage.PageID, len(seqs))
	for i, s := range seqs {
		want[i] = m.Predict(s)
	}
	got := m.PredictBatch(seqs)
	if len(got) != len(seqs) {
		t.Fatalf("PredictBatch returned %d results for %d sequences", len(got), len(seqs))
	}
	for i := range seqs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("sequence %d: batch %v vs single %v", i, got[i], want[i])
		}
	}
	// Empty and single-element batches are valid.
	if r := m.PredictBatch(nil); len(r) != 0 {
		t.Fatalf("empty batch returned %v", r)
	}
	one := m.PredictBatch([][]int{{2, 5, 3}})
	if !reflect.DeepEqual(one[0], want[0]) {
		t.Fatalf("singleton batch %v vs single %v", one[0], want[0])
	}
}

// BenchmarkInfer times one uncached prediction at the shapes the benchmark's
// serve_miss workload serves: a 37-token plan through an untrained
// DefaultConfig model over about 300 pages (inference cost depends on the
// weights' shapes, not their values).
func BenchmarkInfer(b *testing.B) {
	labels := make([]storage.PageID, 300)
	for i := range labels {
		labels[i] = pg(1, uint32(i))
	}
	m := New(64, labels, DefaultConfig())
	seq := make([]int, 37)
	for i := range seq {
		seq[i] = i % 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(seq)
	}
}
