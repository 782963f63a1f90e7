package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/storage"
)

func pages(ns ...uint32) []storage.PageID {
	out := make([]storage.PageID, len(ns))
	for i, n := range ns {
		out[i] = storage.PageID{Object: 1, Page: storage.PageNum(n)}
	}
	return out
}

func TestScoreExact(t *testing.T) {
	s := Score(pages(1, 2, 3), pages(1, 2, 3))
	if s.Precision != 1 || s.Recall != 1 || s.F1 != 1 {
		t.Fatalf("perfect prediction scored %+v", s)
	}
}

func TestScorePartial(t *testing.T) {
	// predicted {1,2,3,4}, truth {3,4,5}: inter=2, p=0.5, r=2/3.
	s := Score(pages(1, 2, 3, 4), pages(3, 4, 5))
	if math.Abs(s.Precision-0.5) > 1e-12 || math.Abs(s.Recall-2.0/3) > 1e-12 {
		t.Fatalf("partial score %+v", s)
	}
	wantF1 := 2 * 0.5 * (2.0 / 3) / (0.5 + 2.0/3)
	if math.Abs(s.F1-wantF1) > 1e-12 {
		t.Fatalf("F1 = %f, want %f", s.F1, wantF1)
	}
}

func TestScoreEdgeCases(t *testing.T) {
	if s := Score(nil, nil); s.F1 != 1 {
		t.Fatalf("empty-empty F1 = %f", s.F1)
	}
	if s := Score(pages(1), nil); s.F1 != 0 || s.Precision != 0 {
		t.Fatalf("false-positive-only score %+v", s)
	}
	if s := Score(nil, pages(1)); s.F1 != 0 || s.Recall != 0 {
		t.Fatalf("miss-only score %+v", s)
	}
	if s := Score(pages(1, 2), pages(3, 4)); s.F1 != 0 {
		t.Fatalf("disjoint F1 = %f", s.F1)
	}
}

// TestScoreCornersOneConvention pins the four empty/non-empty corners through
// both entry points — metrics.Score (Figure 5) and quality.ScoreSets
// (/v1/feedback, the replay scorer) — so the two are provably one function:
// an empty prediction is vacuously precise, an empty truth vacuously recalled,
// and F1 is 1 only when both are empty.
func TestScoreCornersOneConvention(t *testing.T) {
	for _, c := range []struct {
		name        string
		pred, truth []storage.PageID
		p, r, f1    float64
	}{
		{"both empty", nil, nil, 1, 1, 1},
		{"empty prediction", nil, pages(1), 1, 0, 0},
		{"empty truth", pages(1), nil, 0, 1, 0},
		{"neither empty", pages(1, 2), pages(2, 3), 0.5, 0.5, 0.5},
	} {
		got := Score(c.pred, c.truth)
		if got != (PRF{Precision: c.p, Recall: c.r, F1: c.f1}) {
			t.Errorf("%s: Score = %+v, want p=%v r=%v f1=%v", c.name, got, c.p, c.r, c.f1)
		}
		if q := quality.ScoreSets(c.pred, c.truth); q.Precision() != c.p || q.Recall() != c.r {
			t.Errorf("%s: ScoreSets = p=%v r=%v, want p=%v r=%v", c.name, q.Precision(), q.Recall(), c.p, c.r)
		}
	}
}

func TestScoreBounds(t *testing.T) {
	if err := quick.Check(func(a, b []uint8) bool {
		toPages := func(xs []uint8) []storage.PageID {
			seen := map[uint8]bool{}
			var out []storage.PageID
			for _, x := range xs {
				x %= 50
				if !seen[x] {
					seen[x] = true
					out = append(out, storage.PageID{Object: 1, Page: storage.PageNum(x)})
				}
			}
			slices.SortFunc(out, storage.PageID.Compare)
			return out
		}
		s := Score(toPages(a), toPages(b))
		return s.Precision >= 0 && s.Precision <= 1 &&
			s.Recall >= 0 && s.Recall <= 1 &&
			s.F1 >= 0 && s.F1 <= 1 &&
			s.F1 <= s.Precision+s.Recall
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(10, 5) != 2 {
		t.Fatal("Speedup wrong")
	}
	if !math.IsInf(Speedup(10, 0), 1) {
		t.Fatal("zero variant should be +Inf")
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if Quantile(s, 0) != 1 || Quantile(s, 1) != 5 || Quantile(s, 0.5) != 3 {
		t.Fatal("Quantile endpoints/median wrong")
	}
	if q := Quantile(s, 0.25); q != 2 {
		t.Fatalf("Q1 = %f", q)
	}
	if q := Quantile([]float64{1, 2}, 0.5); q != 1.5 {
		t.Fatalf("interpolated median = %f", q)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Median != 2.5 {
		t.Fatalf("Summary = %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary wrong")
	}
}

func TestBucketizeQuartiles(t *testing.T) {
	keys := make([]float64, 100)
	for i := range keys {
		keys[i] = float64(i)
	}
	buckets := Bucketize(keys)
	var low, mid, high int
	for _, b := range buckets {
		switch b {
		case Low:
			low++
		case Mid:
			mid++
		case High:
			high++
		}
	}
	if low < 20 || low > 30 || high < 20 || high > 30 {
		t.Fatalf("bucket sizes low=%d mid=%d high=%d", low, mid, high)
	}
	// Ordering invariant: every Low key <= every Mid key <= every High key.
	maxOf := map[Bucket]float64{Low: -1, Mid: -1, High: -1}
	minOf := map[Bucket]float64{Low: 1e18, Mid: 1e18, High: 1e18}
	for i, b := range buckets {
		if keys[i] > maxOf[b] {
			maxOf[b] = keys[i]
		}
		if keys[i] < minOf[b] {
			minOf[b] = keys[i]
		}
	}
	if maxOf[Low] > minOf[Mid] || maxOf[Mid] > minOf[High] {
		t.Fatal("bucket ordering violated")
	}
	if Bucketize(nil) != nil {
		t.Fatal("empty bucketize should be nil")
	}
}

func TestGroupByBucket(t *testing.T) {
	buckets := []Bucket{Low, Low, High}
	vals := []float64{1, 3, 10}
	g := GroupByBucket(buckets, vals)
	if g[Low] != 2 || g[High] != 10 {
		t.Fatalf("group = %v", g)
	}
	if !math.IsNaN(g[Mid]) {
		t.Fatal("empty bucket should be NaN")
	}
}

func TestGroupByBucketMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatch did not panic")
		}
	}()
	GroupByBucket([]Bucket{Low}, []float64{1, 2})
}

func TestBucketString(t *testing.T) {
	if Low.String() != "low" || Mid.String() != "mid" || High.String() != "high" {
		t.Fatal("bucket names wrong")
	}
}
