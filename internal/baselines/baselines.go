// Package baselines implements the comparison strategies of §5.2:
//
//   - DFLT — plain Postgres: no prefetching at all (a nil prefetch set).
//   - ORCL — the idealized oracle that knows the exact blocks a query reads
//     and prefetches them with Pythia's prefetcher (perfect F1 by
//     definition).
//   - NN — the idealized nearest-neighbor: retrieve the training query with
//     the highest Jaccard similarity of *accessed blocks* to the test query
//     (idealized because it peeks at the test query's output) and prefetch
//     that neighbor's blocks.
//
// It also provides the Figure 1 splits: the sequential-only and
// non-sequential-only oracle prefetch sets.
package baselines

import (
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
	"github.com/pythia-db/pythia/internal/workload"
)

// Oracle returns the exact distinct non-sequential pages of the instance in
// file-storage order — what ORCL prefetches.
func Oracle(inst *workload.Instance) []storage.PageID {
	return inst.Pages
}

// OracleSequential returns the distinct sequentially accessed pages in
// file-storage order — the "prefetch only sequential reads" variant of
// Figure 1.
func OracleSequential(inst *workload.Instance) []storage.PageID {
	return trace.Distinct(inst.Requests, true)
}

// NearestNeighbor finds the training instance with the highest Jaccard
// similarity to the test instance's accessed blocks and returns its block
// set as the prediction. Ties break toward the earlier training instance
// for determinism. It returns nil for an empty training set.
func NearestNeighbor(test *workload.Instance, train []*workload.Instance) []storage.PageID {
	var best *workload.Instance
	bestSim := -1.0
	for _, tr := range train {
		if s := workload.Similarity(test, tr); s > bestSim {
			bestSim = s
			best = tr
		}
	}
	if best == nil {
		return nil
	}
	return best.Pages
}

// Dflt returns the no-prefetch strategy's (empty) prefetch set.
func Dflt(*workload.Instance) []storage.PageID { return nil }
