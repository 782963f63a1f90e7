package experiments

import (
	"math"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/scheduler"
	"github.com/pythia-db/pythia/internal/serialize"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/workload"
)

// ExtDrift is an extension experiment beyond the paper's figures,
// operationalizing its §5.3 observation that "Pythia can be trained
// incrementally ... every new query run can be used as a new training data
// point": the workload's parameter distribution drifts (queries move to a
// date region never seen in training), accuracy collapses, and incremental
// updates with a handful of post-drift queries recover it — without
// retraining from scratch.
func (s *Suite) ExtDrift() *Table {
	t := newTable("ext-drift", "Workload drift and incremental retraining (t18)",
		"evaluation", "mean F1")
	sp := s.Split("t18")

	// Partition instances by their date parameter: the "past" (first 60% of
	// the generator's date domain) and the drifted "future".
	split := dsb.DateLo + int64(float64(dsb.DateHi-dsb.DateLo)*0.6)
	var past, future []*workload.Instance
	for _, inst := range sp.all.Instances {
		if inst.Query.FactPreds[0].Lo < split {
			past = append(past, inst)
		} else {
			future = append(future, inst)
		}
	}
	if len(past) < 8 || len(future) < 8 {
		// Degenerate split at tiny scales; report NaNs rather than panic.
		t.addRow("insufficient data", math.NaN())
		return t
	}
	pastTrain := past[:len(past)*3/4]
	pastTest := past[len(past)*3/4:]
	futureUpdate := future[:len(future)/2]
	futureTest := future[len(future)/2:]

	// The incremental update below mutates this workload, so it is trained
	// outside the memo: no other run may be handed it.
	k := s.home("t18")
	sys := s.ablation(k, s.train(k, "t18", pastTrain, s.predictorOptions()))
	t.addRow("past queries (in distribution)", meanF1(sys, pastTest))
	t.addRow("future queries (drifted)", meanF1(sys, futureTest))

	// Incremental update with observed post-drift queries. New pages outside
	// the trained label spaces stay unpredictable (the paper's cheap-retrain
	// caveat), so recovery is partial but material.
	var samples []predictor.TrainSample
	for _, inst := range futureUpdate {
		samples = append(samples, predictor.TrainSample{Plan: inst.Plan, Pages: inst.Pages})
	}
	for _, tw := range sys.Workloads() {
		tw.Pred.Update(samples, s.cfg.Model.Epochs)
	}
	t.addRow("future queries after incremental update", meanF1(sys, futureTest))
	t.addRow("past queries after incremental update", meanF1(sys, pastTest))
	return t
}

// ExtSerializationAblation compares this implementation's multi-resolution
// predicate-value tokens against single-resolution tokenization — the
// design decision DESIGN.md calls out. Single-resolution either blurs
// constants (coarse) or fragments training coverage (fine); the ablation
// quantifies both on t91.
func (s *Suite) ExtSerializationAblation() *Table {
	t := newTable("ext-serialization", "Value tokenization ablation (t91)",
		"tokenization", "mean F1")
	k, sp := s.home("t91"), s.Split("t91")
	for _, v := range []struct {
		label string
		cfg   serialize.Config
	}{
		// The suite's own tokenization: Figure 5's t91 training.
		{"multi-resolution (8/32/128)", s.predictorOptions().Serialize},
		{"single coarse (8)", serialize.Config{ValueBuckets: 8, SingleResolution: true}},
		{"single fine (128)", serialize.Config{ValueBuckets: 128, SingleResolution: true}},
	} {
		opts := s.predictorOptions()
		opts.Serialize = v.cfg
		t.addRow(v.label, meanF1(s.ablation(k, s.trained(k, "t91", sp.train, opts)), sp.test))
	}
	return t
}

// ExtScheduler operationalizes the paper's §7 future-work direction: use
// Pythia's predictions to *order* a batch of queries so consecutive queries
// overlap in the pages they read. Sequential warm-cache execution of the
// scheduled order is compared against the arrival order, both with Pythia
// prefetching.
func (s *Suite) ExtScheduler() *Table {
	t := newTable("ext-scheduler", "Prefetch-aware query scheduling (t18+t19+t91)",
		"ordering", "total latency speedup vs arrival order", "chain overlap")
	sys := s.system("t18", "t19", "t91")
	r := sim.NewRand(s.cfg.Seed + 97)

	// A batch interleaving the three templates: arrival order alternates
	// templates (worst case for sharing), so grouping by predicted overlap
	// has room to help.
	var batch []*workload.Instance
	for i := 0; i < 3; i++ {
		for _, tpl := range s.Templates() {
			test := s.Split(tpl).test
			batch = append(batch, test[r.Intn(len(test))])
		}
	}

	preds := make([]scheduler.Prediction, len(batch))
	for i, inst := range batch {
		preds[i] = scheduler.Prediction{Instance: inst, Pages: sys.Prefetch(inst)}
	}
	order := scheduler.Order(preds)
	scheduled := scheduler.Apply(preds, order)

	run := func(insts []*workload.Instance) float64 {
		arrivals := sequentialArrivals(sys, insts)
		return float64(sys.Run(insts, arrivals, sys.Prefetch).TotalElapsed())
	}
	arrivalLatency := run(batch)
	scheduledLatency := run(scheduled)

	identity := make([]int, len(batch))
	for i := range identity {
		identity[i] = i
	}
	t.addRow("arrival order", 1.0, scheduler.ChainOverlap(preds, identity))
	t.addRow("pythia-scheduled", arrivalLatency/scheduledLatency, scheduler.ChainOverlap(preds, order))
	return t
}
