// Package scheduler implements the paper's future-work direction (§7):
// using Pythia's page predictions to order a batch of queries so that
// consecutive queries overlap in the pages they read — each query then finds
// much of its working set already buffered (or prefetched) by its
// predecessor.
//
// The scheduler is deliberately simple and deterministic: a greedy
// nearest-neighbor chain over pairwise Jaccard similarities of the
// *predicted* page sets. It needs no ground truth — the whole point is that
// Pythia's predictions are available before execution — and degrades
// gracefully: with useless predictions it reduces to an arbitrary order.
package scheduler

import (
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
	"github.com/pythia-db/pythia/internal/workload"
)

// Prediction pairs a query instance with its predicted page set (sorted).
type Prediction struct {
	Instance *workload.Instance
	Pages    []storage.PageID
}

// Order returns a permutation of the predictions that greedily maximizes
// consecutive overlap: start from the query with the largest predicted set
// (the most to share), then repeatedly append the unscheduled query most
// similar to the last scheduled one. Ties break toward lower index, so the
// schedule is deterministic.
func Order(preds []Prediction) []int {
	n := len(preds)
	if n == 0 {
		return nil
	}
	used := make([]bool, n)
	order := make([]int, 0, n)

	first := 0
	for i := 1; i < n; i++ {
		if len(preds[i].Pages) > len(preds[first].Pages) {
			first = i
		}
	}
	order = append(order, first)
	used[first] = true

	for len(order) < n {
		last := order[len(order)-1]
		best, bestSim := -1, -1.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			sim := trace.Jaccard(preds[last].Pages, preds[i].Pages)
			if sim > bestSim {
				best, bestSim = i, sim
			}
		}
		order = append(order, best)
		used[best] = true
	}
	return order
}

// Apply returns the instances in scheduled order.
func Apply(preds []Prediction, order []int) []*workload.Instance {
	out := make([]*workload.Instance, len(order))
	for i, idx := range order {
		out[i] = preds[idx].Instance
	}
	return out
}

// ChainOverlap reports the mean Jaccard similarity between consecutive
// entries of the schedule — the quantity the greedy chain maximizes and a
// useful diagnostic for how much sharing a batch admits at all.
func ChainOverlap(preds []Prediction, order []int) float64 {
	if len(order) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(order); i++ {
		total += trace.Jaccard(preds[order[i-1]].Pages, preds[order[i]].Pages)
	}
	return total / float64(len(order)-1)
}
