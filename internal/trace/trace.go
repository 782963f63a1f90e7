// Package trace implements the paper's trace construction and
// post-processing (Algorithm 1, lines 5–13): intercept the page requests a
// query issues, strip sequentially accessed blocks, deduplicate (sibling
// leaves share their root path, so raw traces repeat index pages heavily),
// segregate the remainder per database object, and sort each object's set by
// block offset — the order the prefetcher consumes.
package trace

import (
	"slices"

	"github.com/pythia-db/pythia/internal/storage"
)

// Process applies Algorithm 1's post-processing to a raw request stream: it
// returns the query's distinct non-sequential pages sorted by
// storage.PageID.Compare, so each object's pages are one run of sorted
// offsets. This one slice is the training-ready trace, the ground truth F1
// scores predictions against, and the set Jaccard compares.
func Process(reqs []storage.Request) []storage.PageID { return Distinct(reqs, false) }

// Distinct returns the distinct pages of the requests whose Sequential flag
// equals sequential, sorted by storage.PageID.Compare, in a slice of exactly
// that length. A query makes tens of thousands of requests to a few hundred
// pages, so they are deduplicated in a set before any slice is made.
func Distinct(reqs []storage.Request, sequential bool) []storage.PageID {
	seen := make(map[storage.PageID]struct{})
	for _, r := range reqs {
		if r.Sequential == sequential {
			seen[r.Page] = struct{}{}
		}
	}
	out := make([]storage.PageID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	slices.SortFunc(out, storage.PageID.Compare)
	return out
}

// SeqRequests counts a raw stream's sequential page requests (Table 1's
// "seq IO"); its distinct non-sequential pages are len(Process(reqs)).
func SeqRequests(reqs []storage.Request) int {
	n := 0
	for _, r := range reqs {
		if r.Sequential {
			n++
		}
	}
	return n
}

// Jaccard computes |a ∩ b| / |a ∪ b| over two sorted PageID slices. Two
// empty sets have similarity 1 (identical behaviour). The paper uses this
// both to characterize workload membership and for the idealized
// nearest-neighbor baseline.
func Jaccard(a, b []storage.PageID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := Intersection(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Intersection returns |a ∩ b| for sorted, duplicate-free slices — the one
// set-overlap loop behind Jaccard and quality.ScoreSets (and through it
// metrics.Score).
func Intersection(a, b []storage.PageID) int {
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i].Less(b[j]):
			i++
		default:
			j++
		}
	}
	return inter
}
