package experiments

import (
	"fmt"

	"github.com/pythia-db/pythia/internal/buffer"
	"github.com/pythia-db/pythia/internal/metrics"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/replay"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// meanF1 is Pythia's mean F1 over a set of held-out queries.
func meanF1(sys *pythia.System, test []*workload.Instance) float64 {
	return metrics.Summarize(pythiaF1s(sys, test)).Mean
}

// Figure12a reproduces Figure 12a: F1 vs database scale factor. Model
// accuracy degrades slightly as the block space grows with fixed training
// data.
func (s *Suite) Figure12a() *Table {
	t := newTable("fig12a", "F1 vs database scale factor (t18)",
		"scale factor", "mean F1")
	for _, pct := range []int{25, 50, 100} {
		k := dbKey{scale: max(s.cfg.Scale*pct/100, 2)}
		sp := s.split(k, "t18")
		t.addRow(fmt.Sprintf("SF%d", pct), meanF1(s.ablation(k, s.trained(k, "t18", sp.train, s.ablationOptions())), sp.test))
	}
	return t
}

// Figure12b reproduces Figure 12b: F1 vs training-set size. Marginal
// improvement decreases as training data grows.
func (s *Suite) Figure12b() *Table {
	t := newTable("fig12b", "F1 vs training data fraction (t18)",
		"train fraction", "mean F1")
	k, sp := s.home("t18"), s.Split("t18")
	for _, frac := range []float64{0.10, 0.25, 0.50, 0.75, 1.0} {
		sub := workload.Subsample(sp.train, frac, s.cfg.Seed+31)
		sys := s.ablation(k, s.trained(k, "t18", sub, s.ablationOptions()))
		t.addRow(fmt.Sprintf("%.0f%%", frac*100), meanF1(sys, sp.test))
	}
	return t
}

// Figure12c reproduces Figure 12c: homogeneous vs heterogeneous workloads.
// Training one predictor on a t18+t19 mix (same total training budget)
// degrades accuracy relative to per-template models.
func (s *Suite) Figure12c() *Table {
	t := newTable("fig12c", "Homogeneous vs heterogeneous workload (t18+t19)",
		"configuration", "t18 F1", "t19 F1")
	sys := s.system("t18", "t19")
	sp18, sp19 := s.Split("t18"), s.Split("t19")
	t.addRow("homogeneous", meanF1(sys, sp18.test), meanF1(sys, sp19.test))

	// Heterogeneous: one predictor over a half-and-half mix, matching the
	// homogeneous per-template training budget.
	mixed := append(append([]*workload.Instance{},
		workload.Subsample(sp18.train, 0.5, s.cfg.Seed+41)...),
		workload.Subsample(sp19.train, 0.5, s.cfg.Seed+43)...)
	k := s.home("t18")
	hsys := s.ablation(k, s.trained(k, "t18", mixed, s.ablationOptions()))
	t.addRow("heterogeneous", meanF1(hsys, sp18.test), meanF1(hsys, sp19.test))
	return t
}

// Figure12d reproduces Figure 12d: a separate head per index / base table
// vs one combined head per relation, both on the workload's one encoder
// trunk (counted once in "total params"). Combined heads save space but
// lose accuracy. EXPERIMENTS.md quotes the third point, a separate encoder
// per object, from the last commit that had one.
func (s *Suite) Figure12d() *Table {
	t := newTable("fig12d", "Separate vs combined index/base-table heads on one trunk (t18)",
		"configuration", "mean F1", "total params")
	k, sp := s.home("t18"), s.Split("t18")

	// Combined: group each relation's heap with its index.
	combined := s.ablationOptions()
	for _, rel := range s.database(k).sys.DB.Relations() {
		for _, ix := range rel.Indexes() {
			combined.Groups = append(combined.Groups, []storage.ObjectID{
				rel.Heap.ID, ix.Tree.Object().ID,
			})
		}
	}
	for _, v := range []struct {
		label string
		opts  predictor.Options
	}{
		{"separate", s.ablationOptions()},
		{"combined", combined},
	} {
		tw := s.trained(k, "t18", sp.train, v.opts)
		t.addRow(v.label, meanF1(s.ablation(k, tw), sp.test), tw.Pred.ParamCount())
	}
	return t
}

// Figure12e reproduces Figure 12e: speedup under Clock, LRU, and MRU buffer
// replacement (reduced buffer so replacement actually kicks in). Pythia
// helps under all three; LRU edges out Clock; MRU trails.
func (s *Suite) Figure12e() *Table {
	t := newTable("fig12e", "Speedup by buffer replacement policy (t18, half buffer)",
		"policy", "speedup")
	sys := s.system("t18")
	half := s.bufferPages() / 2
	for _, pol := range []buffer.Policy{buffer.Clock, buffer.LRU, buffer.MRU} {
		v := sys.WithReplay(replay.Config{BufferPages: half, BufferPolicy: pol})
		t.addRow(pol.String(), s.meanSpeedups(v, "t18", v.Prefetch)[0])
	}
	return t
}

// Figure12f reproduces Figure 12f: speedup vs buffer size, as a multiple of
// the main experiments' buffer. Larger buffers leave more room for
// prefetched pages.
func (s *Suite) Figure12f() *Table {
	t := newTable("fig12f", "Speedup vs buffer size (t18)",
		"buffer", "pages", "speedup")
	sys := s.system("t18")
	base := s.bufferPages()
	for _, mul := range []struct {
		label    string
		num, den int
	}{
		{"x0.25", 1, 4}, {"x0.5", 1, 2}, {"x1", 1, 1}, {"x2", 2, 1},
	} {
		pages := max(base*mul.num/mul.den, 64)
		v := sys.WithReplay(replay.Config{BufferPages: pages})
		t.addRow(mul.label, pages, s.meanSpeedups(v, "t18", v.Prefetch)[0])
	}
	return t
}

// Figure12g reproduces Figure 12g: speedup vs readahead window R. Growth
// tapers past the paper's default of 1024.
func (s *Suite) Figure12g() *Table {
	t := newTable("fig12g", "Speedup vs readahead window R (t18)",
		"window", "speedup")
	sys := s.system("t18")
	for _, w := range []int{16, 64, 256, 1024, 4096} {
		v := sys.WithWindow(w)
		t.addRow(fmt.Sprint(w), s.meanSpeedups(v, "t18", v.Prefetch)[0])
	}
	return t
}

// Figure12h reproduces Figure 12h: predicting only the top-k most frequent
// pages. Restricting to popular pages yields little benefit — those pages
// tend to stay buffered anyway; the bulk of the speedup comes from the
// infrequent non-sequential pages.
func (s *Suite) Figure12h() *Table {
	t := newTable("fig12h", "Speedup when predicting only top-k frequent pages (t18)",
		"label space", "speedup")
	k, sp := s.home("t18"), s.Split("t18")

	// Distinct observed pages define the full label-space size; the paper's
	// 20k/40k/60k sweep maps to 25% / 50% / 75% of it at this scale.
	distinct := map[storage.PageID]bool{}
	for _, inst := range sp.train {
		for _, p := range inst.Pages {
			distinct[p] = true
		}
	}
	full := len(distinct)
	variants := []struct {
		label string
		topK  int
	}{
		{"top 25%", full / 4},
		{"top 50%", full / 2},
		{"top 75%", full * 3 / 4},
		{"full", 0},
	}
	for _, v := range variants {
		opts := s.ablationOptions()
		opts.TopK = v.topK
		sys := s.ablation(k, s.trained(k, "t18", sp.train, opts))
		t.addRow(v.label, s.meanSpeedups(sys, "t18", sys.Prefetch)[0])
	}
	return t
}
