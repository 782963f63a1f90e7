package model

import (
	"fmt"
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
// DefaultConfig trunk with heads over about 300 pages each (inference cost
// depends on the weights' shapes, not their values). heads=5 is what a t91
// plan selects; it reads ≈ 0.05 ms above heads=1's ≈ 0.15 ms — four more
// decoders and their sigmoids — where five private encoders cost five times.
// parallel is heads=5 from GOMAXPROCS goroutines on one trunk: each call runs
// on a view of its own, so its ns/op falls with the CPUs given (-cpu).
func BenchmarkInfer(b *testing.B) {
	seq := make([]int, 37)
	for i := range seq {
		seq[i] = i % 64
	}
	var t *Trunk
	for _, heads := range []int{1, 5} {
		labelSets := make([][]storage.PageID, heads)
		for h := range labelSets {
			for i := 0; i < 300; i++ {
				labelSets[h] = append(labelSets[h], pg(uint32(h+1), uint32(i)))
			}
		}
		t = NewTrunk(64, labelSets, DefaultConfig())
		b.Run(fmt.Sprintf("heads=%d", heads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.Predict(seq, t.Heads())
			}
		})
	}
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t.Predict(seq, t.Heads())
			}
		})
	})
}
