// Package metrics implements the paper's evaluation measures: set-based
// precision/recall/F1 over predicted vs actual page sets (§5.1,
// "Performance Metrics"), speedup ratios, quantile bucketization (bottom /
// middle / top 25%, used by Figures 7–8 and 10–11), and summary statistics.
package metrics

import (
	"math"
	"sort"

	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/storage"
)

// PRF is one query's precision, recall, and F1.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
}

// Score compares a predicted page set against the ground truth. It is
// quality.ScoreSets' overlap as ratios, under that package's convention for
// the empty corners: an empty prediction is vacuously precise, an empty truth
// vacuously recalled — so two empty sets score a perfect 1, and either one
// alone an F1 of 0.
func Score(predicted, truth []storage.PageID) PRF {
	s := quality.ScoreSets(predicted, truth)
	p, r := s.Precision(), s.Recall()
	f1 := 0.0
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	return PRF{Precision: p, Recall: r, F1: f1}
}

// Speedup is baselineTime / variantTime; values above 1 mean the variant is
// faster.
func Speedup(baseline, variant float64) float64 {
	if variant <= 0 {
		return math.Inf(1)
	}
	return baseline / variant
}

// Summary holds distribution statistics of a sample.
type Summary struct {
	N            int
	Mean, Median float64
	Min, Max     float64
	P25, P75     float64
}

// Summarize computes a Summary; an empty sample returns the zero value.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:      len(s),
		Mean:   sum / float64(len(s)),
		Median: Quantile(s, 0.5),
		Min:    s[0],
		Max:    s[len(s)-1],
		P25:    Quantile(s, 0.25),
		P75:    Quantile(s, 0.75),
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of a sorted sample with linear
// interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Bucket identifies a quantile bucket.
type Bucket int

const (
	// Low is the bottom 25% of the bucketization key.
	Low Bucket = iota
	// Mid is the middle 50%.
	Mid
	// High is the top 25%.
	High
)

// String names the bucket as the figures label them.
func (b Bucket) String() string {
	switch b {
	case Low:
		return "low"
	case Mid:
		return "mid"
	default:
		return "high"
	}
}

// Bucketize assigns each item to Low (bottom 25% by key), High (top 25%), or
// Mid — the quantile split Figures 7–8 and 10–11 use. Ties at the
// boundaries resolve by key comparison against the exact quartile values.
func Bucketize(keys []float64) []Bucket {
	if len(keys) == 0 {
		return nil
	}
	s := append([]float64(nil), keys...)
	sort.Float64s(s)
	q1 := Quantile(s, 0.25)
	q3 := Quantile(s, 0.75)
	out := make([]Bucket, len(keys))
	for i, k := range keys {
		switch {
		case k <= q1:
			out[i] = Low
		case k > q3:
			out[i] = High
		default:
			out[i] = Mid
		}
	}
	return out
}

// GroupByBucket averages values per bucket; buckets with no members report
// NaN so callers can distinguish "no data" from zero.
func GroupByBucket(buckets []Bucket, values []float64) map[Bucket]float64 {
	if len(buckets) != len(values) {
		panic("metrics: buckets/values length mismatch")
	}
	sums := map[Bucket]float64{}
	counts := map[Bucket]int{}
	for i, b := range buckets {
		sums[b] += values[i]
		counts[b]++
	}
	out := map[Bucket]float64{Low: math.NaN(), Mid: math.NaN(), High: math.NaN()}
	for b, c := range counts {
		out[b] = sums[b] / float64(c)
	}
	return out
}
