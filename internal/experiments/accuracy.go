package experiments

import (
	"github.com/pythia-db/pythia/internal/baselines"
	"github.com/pythia-db/pythia/internal/metrics"
	"github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// Table1 reproduces Table 1: per-workload statistics.
func (s *Suite) Table1() *Table {
	t := newTable("table1", "Statistics for template workloads",
		"workload", "seq IO", "min distinct non-seq", "max distinct non-seq",
		"distinct plans", "relations joined", "max idx scanned")
	for _, name := range []string{"imdb1a", "t18", "t19", "t91"} {
		st := s.Split(name).all.ComputeStats()
		t.addRow(name, st.SeqIO, st.MinDistinctNS, st.MaxDistinctNS,
			st.DistinctPlans, st.RelationsJoined, st.MaxIndexScanned)
	}
	return t
}

// Figure1 reproduces Figure 1: oracle prefetching of sequential vs
// non-sequential reads. Non-sequential prefetch wins; sequential prefetch is
// nearly useless because OS readahead already serves those reads.
func (s *Suite) Figure1() *Table {
	t := newTable("fig1", "Prefetching sequential vs non-sequential reads (oracle)",
		"template", "seq-only speedup", "non-seq-only speedup")
	sys := s.DSBSystem() // no training needed: oracle prefetch sets
	for _, tpl := range s.Templates() {
		m := s.meanSpeedups(sys, tpl, baselines.OracleSequential, baselines.Oracle)
		t.addRow(tpl, m[0], m[1])
	}
	return t
}

// pythiaF1 scores Pythia's prediction for one query.
func pythiaF1(sys *pythia.System, inst *workload.Instance) float64 {
	return metrics.Score(sys.Prefetch(inst), inst.Pages).F1
}

// pythiaF1s scores Pythia on a workload's held-out queries.
func pythiaF1s(sys *pythia.System, test []*workload.Instance) []float64 {
	out := make([]float64, len(test))
	for i, inst := range test {
		out[i] = pythiaF1(sys, inst)
	}
	return out
}

// coldSpeedup is one query's cold-cache speedup under Pythia's prefetching.
func coldSpeedup(sys *pythia.System, inst *workload.Instance) float64 {
	return sys.SpeedupColdCache(inst, sys.Prefetch)
}

// Figure5 reproduces Figure 5: Pythia's F1 vs the idealized
// nearest-neighbor baseline, per workload. (ORCL is omitted as in the
// paper — by definition it scores a perfect F1.)
func (s *Suite) Figure5() *Table {
	t := newTable("fig5", "F1: Pythia vs idealized NN baseline",
		"workload", "Pythia mean F1", "Pythia median F1", "NN mean F1", "NN median F1")
	for _, name := range append(s.Templates(), "imdb1a") {
		sp := s.Split(name)
		py := metrics.Summarize(pythiaF1s(s.system(name), sp.test))
		var nn []float64
		for _, inst := range sp.test {
			nn = append(nn, metrics.Score(baselines.NearestNeighbor(inst, sp.train), inst.Pages).F1)
		}
		nns := metrics.Summarize(nn)
		t.addRow(name, py.Mean, py.Median, nns.Mean, nns.Median)
	}
	return t
}

// Figure6 reproduces Figure 6: cold-cache speedup of Pythia vs the ORCL and
// NN idealized baselines, per template. T91 shows the largest speedups (its
// non-sequential fraction is the highest).
func (s *Suite) Figure6() *Table {
	t := newTable("fig6", "Speedup: Pythia vs ORCL vs NN",
		"template", "Pythia", "ORCL", "NN")
	for _, tpl := range s.Templates() {
		sys, train := s.DSBSystem(tpl), s.Split(tpl).train
		nn := func(i *workload.Instance) []storage.PageID { return baselines.NearestNeighbor(i, train) }
		m := s.meanSpeedups(sys, tpl, sys.Prefetch, baselines.Oracle, nn)
		t.addRow(tpl, m[0], m[1], m[2])
	}
	return t
}

// byBucket fills t with one §5.3 factor analysis: measure over each named
// workload's held-out queries, averaged within the quartile buckets of key.
func (s *Suite) byBucket(t *Table, names []string,
	key func(*split, *workload.Instance) float64,
	measure func(*pythia.System, *workload.Instance) float64) *Table {
	for _, name := range names {
		sp, sys := s.Split(name), s.system(name)
		keys, vals := make([]float64, len(sp.test)), make([]float64, len(sp.test))
		for i, inst := range sp.test {
			keys[i], vals[i] = key(sp, inst), measure(sys, inst)
		}
		g := metrics.GroupByBucket(metrics.Bucketize(keys), vals)
		t.addRow(name, g[metrics.Low], g[metrics.Mid], g[metrics.High])
	}
	return t
}

// similarity is a held-out query's average Jaccard similarity to its
// workload's training queries.
func similarity(sp *split, inst *workload.Instance) float64 {
	return workload.AvgSimilarity(inst, sp.train)
}

// nonSeqReads is a held-out query's number of distinct non-sequential reads.
func nonSeqReads(_ *split, inst *workload.Instance) float64 {
	return float64(workload.NonSeqReads(inst))
}

// Figure7 reproduces Figure 7: F1 by test-query↔workload similarity bucket.
func (s *Suite) Figure7() *Table {
	return s.byBucket(newTable("fig7", "F1 by similarity between test query and workload",
		"workload", "low 25%", "mid 50%", "top 25%"), append(s.Templates(), "imdb1a"), similarity, pythiaF1)
}

// Figure8 reproduces Figure 8: speedup by similarity bucket.
func (s *Suite) Figure8() *Table {
	return s.byBucket(newTable("fig8", "Speedup by similarity between test query and workload",
		"template", "low 25%", "mid 50%", "top 25%"), s.Templates(), similarity, coldSpeedup)
}

// Figure10 reproduces Figure 10: F1 by number of non-sequential reads.
func (s *Suite) Figure10() *Table {
	return s.byBucket(newTable("fig10", "F1 by number of distinct non-sequential reads",
		"workload", "low 25%", "mid 50%", "top 25%"), append(s.Templates(), "imdb1a"), nonSeqReads, pythiaF1)
}

// Figure11 reproduces Figure 11: speedup by number of non-sequential reads.
// The IMDB high bucket is limited by buffer-bounded prefetching.
func (s *Suite) Figure11() *Table {
	return s.byBucket(newTable("fig11", "Speedup by number of distinct non-sequential reads",
		"workload", "low 25%", "mid 50%", "top 25%"), append(s.Templates(), "imdb1a"), nonSeqReads, coldSpeedup)
}
