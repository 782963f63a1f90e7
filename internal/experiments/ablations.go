package experiments

import (
	"fmt"

	"github.com/pythia-db/pythia/internal/buffer"
	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/metrics"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/replay"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// trainFreshT18 builds an independent t18 system over the given generator
// with custom predictor options (used by the retraining ablations).
func (s *Suite) trainFreshT18(g *dsb.Generator, train []*workload.Instance, opts predictor.Options, bufferPages int) *pythia.System {
	cfg := pythia.DefaultConfig()
	cfg.Predictor = opts
	cfg.Replay = replay.Config{BufferPages: bufferPages}
	sys := pythia.New(g.DB(), cfg)
	sys.Train("t18", train)
	return sys
}

// trainFresh builds an independent system over the suite's main DSB
// database and trains the named workload with custom options.
func (s *Suite) trainFresh(name string, train []*workload.Instance, opts predictor.Options) *pythia.System {
	cfg := pythia.DefaultConfig()
	cfg.Predictor = opts
	cfg.Replay = replay.Config{BufferPages: s.bufferPages()}
	sys := pythia.New(s.generator().DB(), cfg)
	sys.Train(name, train)
	return sys
}

// Figure12a reproduces Figure 12a: F1 vs database scale factor. Model
// accuracy degrades slightly as the block space grows with fixed training
// data.
func (s *Suite) Figure12a() *Table {
	t := newTable("fig12a", "F1 vs database scale factor (t18)",
		"scale factor", "mean F1")
	base := s.cfg.Scale
	for _, frac := range []struct {
		label string
		scale int
	}{
		{"SF25", base / 4},
		{"SF50", base / 2},
		{"SF100", base},
	} {
		scale := frac.scale
		if scale < 2 {
			scale = 2
		}
		g := dsb.NewGenerator(dsb.Config{ScaleFactor: scale, Seed: s.cfg.Seed})
		w := g.Workload("t18", s.cfg.PerTemplate, s.cfg.Seed+11)
		train, test := w.Split(s.cfg.TestFraction, s.cfg.Seed+23)
		sys := s.trainFreshT18(g, train, s.ablationOptions(), s.bufferPages())
		f1 := metrics.Summarize(pythiaF1s(sys, test)).Mean
		t.addRow(frac.label, f1)
		t.set(frac.label, "f1", f1)
	}
	return t
}

// Figure12b reproduces Figure 12b: F1 vs training-set size. Marginal
// improvement decreases as training data grows.
func (s *Suite) Figure12b() *Table {
	t := newTable("fig12b", "F1 vs training data fraction (t18)",
		"train fraction", "mean F1")
	sp := s.Split("t18")
	for _, frac := range []float64{0.10, 0.25, 0.50, 0.75, 1.0} {
		sub := workload.Subsample(sp.train, frac, s.cfg.Seed+31)
		sys := s.trainFreshT18(s.generator(), sub, s.ablationOptions(), s.bufferPages())
		f1 := metrics.Summarize(pythiaF1s(sys, sp.test)).Mean
		label := fmt.Sprintf("%.0f%%", frac*100)
		t.addRow(label, f1)
		t.set(label, "f1", f1)
	}
	return t
}

// Figure12c reproduces Figure 12c: homogeneous vs heterogeneous workloads.
// Training one predictor on a t18+t19 mix (same total training budget)
// degrades accuracy relative to per-template models.
func (s *Suite) Figure12c() *Table {
	t := newTable("fig12c", "Homogeneous vs heterogeneous workload (t18+t19)",
		"configuration", "t18 F1", "t19 F1")
	sys := s.DSBSystem("t18", "t19")
	sp18, sp19 := s.Split("t18"), s.Split("t19")
	homo18 := metrics.Summarize(pythiaF1s(sys, sp18.test)).Mean
	homo19 := metrics.Summarize(pythiaF1s(sys, sp19.test)).Mean
	t.addRow("homogeneous", homo18, homo19)
	t.set("homogeneous", "t18", homo18)
	t.set("homogeneous", "t19", homo19)

	// Heterogeneous: one predictor over a half-and-half mix, matching the
	// homogeneous per-template training budget.
	mixed := append(append([]*workload.Instance{},
		workload.Subsample(sp18.train, 0.5, s.cfg.Seed+41)...),
		workload.Subsample(sp19.train, 0.5, s.cfg.Seed+43)...)
	hsys := s.trainFreshT18(s.generator(), mixed, s.ablationOptions(), s.bufferPages())
	het18 := metrics.Summarize(pythiaF1s(hsys, sp18.test)).Mean
	het19 := metrics.Summarize(pythiaF1s(hsys, sp19.test)).Mean
	t.addRow("heterogeneous", het18, het19)
	t.set("heterogeneous", "t18", het18)
	t.set("heterogeneous", "t19", het19)
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
	sp := s.Split("t18")

	sep := s.trainFreshT18(s.generator(), sp.train, s.ablationOptions(), s.bufferPages())
	sepF1 := metrics.Summarize(pythiaF1s(sep, sp.test)).Mean
	var sepParams int
	for _, w := range sep.Workloads() {
		sepParams += w.Pred.ParamCount()
	}
	t.addRow("shared trunk", sepF1, sepParams)
	t.set("separate", "f1", sepF1)
	t.set("separate", "params", float64(sepParams))

	// Combined: group each relation's heap with its index.
	opts := s.ablationOptions()
	for _, rel := range s.generator().DB().Relations() {
		for _, ix := range rel.Indexes() {
			opts.Groups = append(opts.Groups, []storage.ObjectID{
				rel.Heap.ID, ix.Tree.Object().ID,
			})
		}
	}
	comb := s.trainFreshT18(s.generator(), sp.train, opts, s.bufferPages())
	combF1 := metrics.Summarize(pythiaF1s(comb, sp.test)).Mean
	var combParams int
	for _, w := range comb.Workloads() {
		combParams += w.Pred.ParamCount()
	}
	t.addRow("combined", combF1, combParams)
	t.set("combined", "f1", combF1)
	t.set("combined", "params", float64(combParams))
	return t
}

// Figure12e reproduces Figure 12e: speedup under Clock, LRU, and MRU buffer
// replacement (reduced buffer so replacement actually kicks in). Pythia
// helps under all three; LRU edges out Clock; MRU trails.
func (s *Suite) Figure12e() *Table {
	t := newTable("fig12e", "Speedup by buffer replacement policy (t18, half buffer)",
		"policy", "speedup")
	sys := s.DSBSystem("t18")
	half := s.bufferPages() / 2
	for _, pol := range []buffer.Policy{buffer.Clock, buffer.LRU, buffer.MRU} {
		v := sys.WithReplay(replay.Config{BufferPages: half, BufferPolicy: pol})
		var sp []float64
		for _, inst := range s.speedupSample("t18") {
			sp = append(sp, v.SpeedupColdCache(inst, v.Prefetch))
		}
		m := metrics.Summarize(sp).Mean
		t.addRow(pol.String(), m)
		t.set(pol.String(), "speedup", m)
	}
	return t
}

// Figure12f reproduces Figure 12f: speedup vs buffer size. Larger buffers
// leave more room for prefetched pages.
func (s *Suite) Figure12f() *Table {
	t := newTable("fig12f", "Speedup vs buffer size (t18)",
		"buffer (pages)", "speedup")
	sys := s.DSBSystem("t18")
	base := s.bufferPages()
	for _, mul := range []struct {
		label string
		num   int
		den   int
	}{
		{"x0.25", 1, 4}, {"x0.5", 1, 2}, {"x1", 1, 1}, {"x2", 2, 1},
	} {
		pages := base * mul.num / mul.den
		if pages < 64 {
			pages = 64
		}
		v := sys.WithReplay(replay.Config{BufferPages: pages})
		var sp []float64
		for _, inst := range s.speedupSample("t18") {
			sp = append(sp, v.SpeedupColdCache(inst, v.Prefetch))
		}
		m := metrics.Summarize(sp).Mean
		label := fmt.Sprintf("%d", pages)
		t.addRow(label, m)
		t.set(mul.label, "speedup", m)
	}
	return t
}

// Figure12g reproduces Figure 12g: speedup vs readahead window R. Growth
// tapers past the paper's default of 1024.
func (s *Suite) Figure12g() *Table {
	t := newTable("fig12g", "Speedup vs readahead window R (t18)",
		"window", "speedup")
	sys := s.DSBSystem("t18")
	for _, w := range []int{16, 64, 256, 1024, 4096} {
		v := sys.WithWindow(w)
		var sp []float64
		for _, inst := range s.speedupSample("t18") {
			sp = append(sp, v.SpeedupColdCache(inst, v.Prefetch))
		}
		m := metrics.Summarize(sp).Mean
		t.addRow(w, m)
		t.set(fmt.Sprintf("%d", w), "speedup", m)
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
	sp := s.Split("t18")

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
		sys := s.trainFreshT18(s.generator(), sp.train, opts, s.bufferPages())
		var sps []float64
		for _, inst := range s.speedupSample("t18") {
			sps = append(sps, sys.SpeedupColdCache(inst, sys.Prefetch))
		}
		m := metrics.Summarize(sps).Mean
		t.addRow(v.label, m)
		t.set(v.label, "speedup", m)
	}
	return t
}
