package model

import (
	"fmt"
	"testing"

	"github.com/pythia-db/pythia/internal/storage"
)

// servedTrunk is an untrained DefaultConfig trunk at the shapes the
// benchmark's serve_miss workload serves, with the given number of heads
// over 300 pages each, and a 37-token plan for it (inference cost depends
// on the weights' shapes, not their values).
func servedTrunk(heads int) (*Trunk, []int) {
	seq := make([]int, 37)
	for i := range seq {
		seq[i] = i % 64
	}
	labelSets := make([][]storage.PageID, heads)
	for h := range labelSets {
		for i := 0; i < 300; i++ {
			labelSets[h] = append(labelSets[h], pg(uint32(h+1), uint32(i)))
		}
	}
	return NewTrunk(64, labelSets, DefaultConfig()), seq
}

// TestInferAllocs: once a view is warm, Infer allocates its result and the
// one slice every head's probabilities share — two objects whatever the
// head count. A per-head probability slice makes heads=5 allocate six.
func TestInferAllocs(t *testing.T) {
	for _, heads := range []int{1, 5} {
		tr, seq := servedTrunk(heads)
		// The first pass builds a view and its arena's chunks; after it a
		// pass allocates only its result.
		tr.Infer(seq, tr.Heads())
		if n := testing.AllocsPerRun(20, func() { tr.Infer(seq, tr.Heads()) }); n != 2 {
			t.Errorf("heads=%d: Infer allocates %v objects, want 2", heads, n)
		}
	}
}

// BenchmarkInfer times one uncached prediction at servedTrunk's shapes.
// heads=5 is what a t91 plan selects; it costs heads=1's encoder pass plus
// four more decoders and their sigmoids, about a third more, where five
// private encoders would cost five times. parallel is heads=5 from
// GOMAXPROCS goroutines on one trunk: each call runs on a view of its own,
// so its ns/op falls with the CPUs given (-cpu).
func BenchmarkInfer(b *testing.B) {
	var t *Trunk
	var seq []int
	for _, heads := range []int{1, 5} {
		t, seq = servedTrunk(heads)
		b.Run(fmt.Sprintf("heads=%d", heads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.Infer(seq, t.Heads())
			}
		})
	}
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t.Infer(seq, t.Heads())
			}
		})
	})
}
