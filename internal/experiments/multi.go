package experiments

import (
	"fmt"

	"github.com/pythia-db/pythia/internal/baselines"
	"github.com/pythia-db/pythia/internal/metrics"
	"github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/workload"
)

// sampleMixed draws n test instances uniformly across the given templates.
func (s *Suite) sampleMixed(r *sim.Rand, templates []string, n int) []*workload.Instance {
	out := make([]*workload.Instance, n)
	for i := range out {
		tpl := templates[r.Intn(len(templates))]
		test := s.Split(tpl).test
		out[i] = test[r.Intn(len(test))]
	}
	return out
}

// totalSpeedup replays insts under DFLT and under strategy with the given
// arrivals, and returns total-latency speedup (the paper's multi-query
// metric: "we calculate the speedup of all queries run instead of
// individually").
func totalSpeedup(sys *pythia.System, insts []*workload.Instance, arrivals []sim.Duration, strategy pythia.PrefetchFunc) float64 {
	dflt := sys.Run(insts, arrivals, nil)
	variant := sys.Run(insts, arrivals, strategy)
	return metrics.Speedup(float64(dflt.TotalElapsed()), float64(variant.TotalElapsed()))
}

// sequentialArrivals spaces queries so they never overlap: each arrives
// after the previous one's default-path completion (with 10% slack).
func sequentialArrivals(sys *pythia.System, insts []*workload.Instance) []sim.Duration {
	arrivals := make([]sim.Duration, len(insts))
	var at sim.Duration
	for i, inst := range insts {
		arrivals[i] = at
		solo := sys.Run([]*workload.Instance{inst}, nil, nil)
		at += solo.TotalElapsed() * 11 / 10
	}
	return arrivals
}

// Figure13a reproduces Figure 13a: several queries run back to back with a
// warm cache (no flushing in between). Pythia's gains shrink versus the
// cold-cache single-query setting — some correct prefetches are already
// resident — but remain close to the oracle's.
func (s *Suite) Figure13a() *Table {
	t := newTable("fig13a", "Sequential multi-query speedup, warm cache",
		"run", "Pythia", "ORCL")
	sys := s.system("t18", "t19", "t91")
	r := sim.NewRand(s.cfg.Seed + 77)
	runs := 3
	var pys, orcls []float64
	for run := 0; run < runs; run++ {
		insts := s.sampleMixed(r, s.Templates(), 4)
		arrivals := sequentialArrivals(sys, insts)
		py := totalSpeedup(sys, insts, arrivals, sys.Prefetch)
		orcl := totalSpeedup(sys, insts, arrivals, baselines.Oracle)
		pys = append(pys, py)
		orcls = append(orcls, orcl)
		t.addRow(fmt.Sprintf("run%d", run+1), py, orcl)
	}
	t.addRow("mean", metrics.Summarize(pys).Mean, metrics.Summarize(orcls).Mean)
	return t
}

// Figure13b reproduces Figure 13b: queries from a single template running
// concurrently. Gains grow with concurrency (one query's prefetches help
// its siblings) and eventually plateau under resource contention.
func (s *Suite) Figure13b() *Table {
	t := newTable("fig13b", "Concurrent queries, single template (t91)",
		"concurrent queries", "speedup")
	sys := s.system("t91")
	r := sim.NewRand(s.cfg.Seed + 79)
	for _, n := range []int{1, 2, 4, 8} {
		insts := s.sampleMixed(r, []string{"t91"}, n)
		t.addRow(fmt.Sprint(n), totalSpeedup(sys, insts, make([]sim.Duration, n), sys.Prefetch))
	}
	return t
}

// Figure13c reproduces Figure 13c: concurrent queries sampled across all
// three templates. Mixed-template neighbours contend instead of helping, so
// gains dip with concurrency before levelling out.
func (s *Suite) Figure13c() *Table {
	t := newTable("fig13c", "Concurrent queries, mixed templates",
		"concurrent queries", "speedup")
	sys := s.system("t18", "t19", "t91")
	r := sim.NewRand(s.cfg.Seed + 83)
	for _, n := range []int{1, 2, 4, 8} {
		insts := s.sampleMixed(r, s.Templates(), n)
		t.addRow(fmt.Sprint(n), totalSpeedup(sys, insts, make([]sim.Duration, n), sys.Prefetch))
	}
	return t
}

// Figure13d reproduces Figure 13d: five queries from one template with
// Poisson arrival times tuned for an expected pairwise overlap from 25% to
// 100% (same arrival instant).
func (s *Suite) Figure13d() *Table {
	t := newTable("fig13d", "Concurrent queries with different overlap (t91)",
		"expected overlap", "speedup")
	sys := s.system("t91")
	r := sim.NewRand(s.cfg.Seed + 89)
	insts := s.sampleMixed(r, []string{"t91"}, 5)

	// Expected runtime under the default path calibrates the inter-arrival
	// scale (the paper samples arrivals from a Poisson process whose rate
	// yields the desired expected overlap).
	var meanRuntime sim.Duration
	for _, inst := range insts {
		meanRuntime += sys.Run([]*workload.Instance{inst}, nil, nil).TotalElapsed()
	}
	meanRuntime /= sim.Duration(len(insts))

	for _, overlap := range []float64{0.25, 0.50, 0.75, 1.0} {
		arrivals := make([]sim.Duration, len(insts))
		var at float64
		for i := range arrivals {
			arrivals[i] = sim.Duration(at)
			gap := float64(meanRuntime) * (1 - overlap)
			at += r.ExpFloat64() * gap
		}
		t.addRow(fmt.Sprintf("%.0f%%", overlap*100), totalSpeedup(sys, insts, arrivals, sys.Prefetch))
	}
	return t
}
