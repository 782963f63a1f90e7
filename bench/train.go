package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"github.com/pythia-db/pythia/internal/model"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/workload"
)

// digestPlans is how many held-out plans each trained model is scored on for
// the determinism digest; it keeps verification a small share of an operation.
const digestPlans = 3

// scoreDigest hashes every model's per-label probabilities on a few held-out
// plans. Training is seeded and bitwise deterministic, so every operation of
// a run must produce the same digest.
func scoreDigest(tw *corepythia.Trained, heldOut []*workload.Instance) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for k, inst := range heldOut {
		if k == digestPlans {
			break
		}
		ids := tw.Pred.EncodePlan(inst.Plan)
		for _, m := range tw.Pred.Models() {
			for _, s := range m.Scores(ids) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// trainEnv is one set-up of the train workload and what driving it has
// produced so far.
type trainEnv struct {
	corpus
	epochs int    // of one timed operation
	ops    int    // operations run
	first  uint64 // digest of the first one
}

func runTrain(cfg config) (*workloadResult, error) {
	res := &workloadResult{Name: cfg.Workload, EndToEnd: metricSet{}, PerLayer: metricSet{}}
	chk := &checker{}

	var env *trainEnv
	setup := func() error {
		env = &trainEnv{corpus: buildCorpus(cfg.Seed, cfg.Scale), epochs: cfg.Scale.TrainEpochs}
		return nil
	}
	if err := cfg.setUp(res.EndToEnd, setup); err != nil {
		return nil, err
	}
	if cfg.untraced() {
		segs := timedPhase(cfg.phase(), func(_ int, d time.Duration) []opSample {
			return sequential(d, func() time.Duration { return env.op(nil, chk) })
		})
		if err := summarize(segs, res.EndToEnd); err != nil {
			return nil, err
		}
	}
	if cfg.traced() {
		if err := env.traced(cfg, chk, res); err != nil {
			return nil, err
		}
	}
	chk.into(res)
	return res, nil
}

// op is one operation: a fresh system trained from scratch on the train split,
// and its digest checked against the first operation's. The returned latency
// is the Train call alone.
func (e *trainEnv) op(t *tracer, chk *checker) time.Duration {
	root := t.start("train_op", -1, e.ops)
	sys := corepythia.New(e.gen.DB(), trainConfig(e.epochs))
	var tw *corepythia.Trained
	t0 := time.Now()
	t.in("pythia.train", root, e.ops, func() { tw = sys.Train("t91", e.train) })
	lat := time.Since(t0)
	var d uint64
	t.in("bench.digest", root, e.ops, func() { d = scoreDigest(tw, e.heldOut) })
	t.end(root)
	t.count("pythia.train.samples", int64(len(e.train)*e.epochs))
	t.count("predictor.models_trained", int64(len(tw.Pred.Models())))
	if e.ops == 0 {
		e.first = d
	}
	chk.check(d == e.first && len(tw.Pred.Models()) > 0, "train %d: digest %016x, first was %016x (%d models)", e.ops, d, e.first, len(tw.Pred.Models()))
	e.ops++
	return lat
}

// traced is the train workload's per-layer run: four operations, every other
// one with spans; one longer training for the quality numbers; one more epoch
// on single models; the kernels on their own.
func (e *trainEnv) traced(cfg config, chk *checker, res *workloadResult) error {
	L := res.PerLayer
	tr := newTracer()
	var tracedMS, plainMS []float64
	alloc := allocPerCall(func() {
		for i := 0; i < 4; i++ {
			if i%2 == 0 {
				tracedMS = append(tracedMS, ms(e.op(tr, chk)))
			} else {
				plainMS = append(plainMS, ms(e.op(nil, chk)))
			}
		}
	})
	L.set("proc.alloc_bytes_per_op", alloc/4)
	L.set("trace.overhead_ratio", median(tracedMS)/median(plainMS))

	sys := corepythia.New(e.gen.DB(), trainConfig(cfg.Scale.QualityEpochs))
	var tw *corepythia.Trained
	tr.in("pythia.train_quality", -1, e.ops, func() { tw = sys.Train("t91", e.train) })
	L.set("predictor.train_s", tw.Pred.TrainTime.Seconds())
	L.set("predictor.models", float64(len(tw.Pred.Models())))
	L.set("model.params", float64(tw.Pred.ParamCount()))
	scoreHeldOut(L, sys, e.heldOut)
	probeSnapshot(L, chk, sys, e.heldOut[0])

	samples := make([]model.Sample, len(e.train))
	tokens := 0
	for i, inst := range e.train {
		samples[i] = model.Sample{TokenIDs: tw.Pred.EncodePlan(inst.Plan), Pages: inst.Pages}
		tokens += len(samples[i].TokenIDs)
	}
	L.set("serialize.tokens_per_plan", float64(tokens)/float64(len(samples)))
	// One more epoch on up to three of the models (sys is thrown away
	// afterwards): time per model-epoch and allocations per step.
	var epochMS, allocs []float64
	var m0, m1 runtime.MemStats
	for k, m := range tw.Pred.Models() {
		if k == 3 {
			break
		}
		runtime.ReadMemStats(&m0)
		id := tr.start("model.train_epoch", -1, e.ops+1+k)
		m.TrainIncremental(samples, 1)
		tr.end(id)
		runtime.ReadMemStats(&m1)
		epochMS = append(epochMS, tr.durationUS(id)/1e3)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(len(samples)))
	}
	L.setFrom("model.train_epoch_ms", mean(epochMS), len(epochMS), nil)
	L.setFrom("nn.train_step_allocs", mean(allocs), len(allocs), nil)
	probeKernels(L, tokens/len(samples), cfg.Scale.KernelReps)
	probeWorkloadBuild(L, e.gen, len(e.all), cfg.Seed+2)
	return finishTrace(cfg, tr, "train_op", res)
}
