// Package trace implements the paper's trace construction and
// post-processing (Algorithm 1, lines 5–13): intercept the page requests a
// query issues, strip sequentially accessed blocks, deduplicate (sibling
// leaves share their root path, so raw traces repeat index pages heavily),
// segregate the remainder per database object, and sort each object's set by
// block offset — the order the prefetcher consumes.
package trace

import (
	"sort"

	"github.com/pythia-db/pythia/internal/storage"
)

// Processed is one query's training-ready trace: for each database object
// accessed non-sequentially, the sorted set of distinct block offsets.
type Processed struct {
	PerObject map[storage.ObjectID][]storage.PageNum
}

// Process applies Algorithm 1's post-processing to a raw request stream.
func Process(reqs []storage.Request) *Processed {
	seen := make(map[storage.PageID]struct{})
	per := make(map[storage.ObjectID][]storage.PageNum)
	for _, r := range reqs {
		if r.Sequential {
			continue // line 8: remove sequential accesses
		}
		if _, dup := seen[r.Page]; dup {
			continue // line 9: deduplicate
		}
		seen[r.Page] = struct{}{}
		per[r.Page.Object] = append(per[r.Page.Object], r.Page.Page) // line 11
	}
	for id := range per {
		p := per[id]
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] }) // line 12
	}
	return &Processed{PerObject: per}
}

// Pages flattens the trace into a single sorted []PageID — the ground-truth
// set used to score predictions (F1) and to compute Jaccard similarities.
func (p *Processed) Pages() []storage.PageID {
	out := make([]storage.PageID, 0, p.Count())
	for id, pages := range p.PerObject {
		for _, n := range pages {
			out = append(out, storage.PageID{Object: id, Page: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Count returns the number of distinct non-sequential pages.
func (p *Processed) Count() int {
	n := 0
	for _, pages := range p.PerObject {
		n += len(pages)
	}
	return n
}

// Object returns the sorted offsets for one object (nil if untouched).
func (p *Processed) Object(id storage.ObjectID) []storage.PageNum {
	return p.PerObject[id]
}

// Stats summarizes a raw request stream; Table 1 reports these per
// workload.
type Stats struct {
	SeqRequests    int // total sequential page requests
	NonSeqRequests int // total non-sequential page requests (with repeats)
	DistinctNonSeq int // distinct non-sequential pages
}

// ComputeStats tallies a raw request stream.
func ComputeStats(reqs []storage.Request) Stats {
	var s Stats
	seen := make(map[storage.PageID]struct{})
	for _, r := range reqs {
		if r.Sequential {
			s.SeqRequests++
			continue
		}
		s.NonSeqRequests++
		if _, dup := seen[r.Page]; !dup {
			seen[r.Page] = struct{}{}
			s.DistinctNonSeq++
		}
	}
	return s
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
