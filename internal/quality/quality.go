// Package quality is the prediction-quality and workload-drift measurement
// layer: was the prefetch set the right one, and does live traffic still look
// like what the models were trained on. It records nothing of its own during
// a replay: a report is read from the finished run, and a drift reading is a
// snapshot its caller exports.
//
// Two concerns live here, deliberately decoupled from where predictions come
// from:
//
//   - Scoring. A prediction is a page set; ground truth is the page set the
//     executor actually touched. ScoreSets computes the exact set overlap
//     (precision = fraction of prefetched pages that were needed, recall =
//     fraction of needed pages that were prefetched); it is also the one
//     scorer behind metrics.Score (Figure 5's F1) and /v1/feedback, under one
//     convention for the empty corners. NewReport adds, per replayed query,
//     what the buffer pool did with the prefetched pages (useful, wasted,
//     fallback sync reads), read from the query's own obs counters.
//
//   - Drift. A Profile is a pair of fixed-size hashed histograms (Sketch)
//     over a plan stream: one over serialized plan tokens, one over whole-plan
//     fingerprints. Training freezes a baseline Profile into the snapshot
//     envelope; a Monitor accumulates the live stream into a decaying window
//     Profile and, every EvalEvery plans, computes a Population Stability
//     Index between baseline and window. The last evaluation's score reads
//     as a level (ok, warning, alarm) through Level.
//
// The hot path — observing one plan into the sketches — is //pythia:noalloc
// and allocation-free, so drift monitoring never slows a serving request.
// Set scoring and report assembly allocate and run after the fact.
package quality

import (
	"slices"

	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/trace"
)

// Score is the exact set overlap of one prediction against ground truth.
type Score struct {
	// Predicted is |P|: pages the prediction issued.
	Predicted int
	// Actual is |A|: distinct pages the executor actually needed.
	Actual int
	// TruePos is |P ∩ A|: predicted pages that were needed.
	TruePos int
}

// Precision is TruePos/Predicted — the fraction of prefetched pages that
// were needed. An empty prediction is vacuously precise (nothing was wasted).
func (s Score) Precision() float64 {
	if s.Predicted == 0 {
		return 1
	}
	return float64(s.TruePos) / float64(s.Predicted)
}

// Recall is TruePos/Actual — the fraction of needed pages that were
// prefetched. A query that needed nothing is vacuously recalled.
func (s Score) Recall() float64 {
	if s.Actual == 0 {
		return 1
	}
	return float64(s.TruePos) / float64(s.Actual)
}

// WastedRatio is 1 − precision: the fraction of prefetched pages the
// executor never needed.
func (s Score) WastedRatio() float64 { return 1 - s.Precision() }

// add folds another score into this one (component-wise sums, for
// aggregates).
func (s *Score) add(o Score) {
	s.Predicted += o.Predicted
	s.Actual += o.Actual
	s.TruePos += o.TruePos
}

// ScoreSets computes the exact overlap of a predicted page set against the
// actually-accessed set. Neither input need be sorted or duplicate-free; the
// function copies and canonicalizes both, so it allocates — call it after a
// run or at feedback time, never per event.
func ScoreSets(predicted, actual []storage.PageID) Score {
	p := canonical(predicted)
	a := canonical(actual)
	return Score{Predicted: len(p), Actual: len(a), TruePos: trace.Intersection(p, a)}
}

// canonical returns a sorted, deduplicated copy of pages.
func canonical(pages []storage.PageID) []storage.PageID {
	out := slices.Clone(pages)
	slices.SortFunc(out, storage.PageID.Compare)
	return slices.Compact(out)
}
