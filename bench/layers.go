package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/metrics"
	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/nn"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/workload"
)

func randMat(rows, cols int, r *sim.Rand) *nn.Mat {
	m := nn.NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// probeKernels times the nn kernels at the shapes the trained models run them
// at: a seqLen-token plan through the default model's feed-forward block
// (seqLen×Dim by Dim×4Dim, forward; the two transposed products of its
// backward pass) and one self-attention block forward and backward. Each value
// is the median of reps calls on the process-wide worker pool.
func probeKernels(L metricSet, seqLen, reps int) {
	mc := model.DefaultConfig()
	d, ff := mc.Dim, 4*mc.Dim
	pool := nn.NewPool(0)
	r := sim.NewRand(1)
	x, w, h := randMat(seqLen, d, r), randMat(d, ff, r), randMat(seqLen, ff, r)

	out := nn.NewMat(seqLen, ff)
	fwd := timeIt(reps, func() { pool.MatMulInto(out, x, w) })
	dw := nn.NewMat(d, ff)
	t1 := timeIt(reps, func() { pool.MatMulT1Into(dw, x, h) })
	dx := nn.NewMat(seqLen, d)
	t2 := timeIt(reps, func() { pool.MatMulT2Into(dx, h, w) })
	L.setFrom("nn.matmul_ns", float64(fwd), reps, nil)
	L.setFrom("nn.matmul_t1_ns", float64(t1), reps, nil)
	L.setFrom("nn.matmul_t2_ns", float64(t2), reps, nil)
	// 2·m·k·n floating-point operations per product; on this CPU run the
	// bytes moved are computed, not measured: 8·(m·k + k·n + m·n).
	L.set("nn.matmul_gflops", float64(2*seqLen*d*ff)/float64(fwd))

	att := nn.NewMHSA("probe", d, mc.Heads, r)
	arena := nn.NewArena()
	att.SetRuntime(nn.Runtime{Pool: pool, Arena: arena})
	dy := randMat(seqLen, d, r)
	var bwd []float64
	afwd := timeIt(reps, func() {
		arena.Release()
		att.Forward(x)
	})
	for i := 0; i < reps; i++ {
		arena.Release()
		att.Forward(x)
		t0 := time.Now()
		att.Backward(dy)
		bwd = append(bwd, float64(time.Since(t0)))
	}
	L.setFrom("nn.attention_fwd_ns", float64(afwd), reps, nil)
	L.setFrom("nn.attention_bwd_ns", median(bwd), reps, nil)
}

// scoreHeldOut reports the paper's two result measures for the system's
// predictions on plans it never trained on. Both repeat exactly for a seed.
func scoreHeldOut(L metricSet, sys *corepythia.System, heldOut []*workload.Instance) {
	var f1, speedup []float64
	for _, inst := range heldOut {
		f1 = append(f1, metrics.Score(sys.Prefetch(inst), inst.Pages).F1)
		speedup = append(speedup, sys.SpeedupColdCache(inst, sys.Prefetch))
	}
	L.setFrom("predictor.heldout_f1", mean(f1), len(f1), nil)
	L.setFrom("pythia.heldout_sim_speedup", mean(speedup), len(speedup), nil)
}

// probeSnapshot times Save and LoadSystem — what a model swap and every extra
// replica pay — and checks that the loaded system predicts like the saved one.
func probeSnapshot(L metricSet, chk *checker, sys *corepythia.System, probe *workload.Instance) {
	var buf bytes.Buffer
	var err error
	L.set("pythia.save_ms", ms(timeIt(3, func() {
		buf.Reset()
		err = sys.Save(&buf)
	})))
	if !chk.check(err == nil, "System.Save: %v", err) {
		return
	}
	L.set("pythia.snapshot_bytes", float64(buf.Len()))
	var loaded *corepythia.System
	L.set("pythia.load_ms", ms(timeIt(3, func() {
		loaded, err = corepythia.LoadSystem(sys.DB, sys.Config(), bytes.NewReader(buf.Bytes()))
	})))
	chk.check(err == nil && slices.Equal(loaded.Prefetch(probe), sys.Prefetch(probe)), "LoadSystem: err %v, or the loaded system predicts differently", err)
}

// probeWorkloadBuild times gen.Workload — plan, execute and trace n t91
// queries — per query.
func probeWorkloadBuild(L metricSet, gen *dsb.Generator, n int, seed uint64) {
	L.set("pythia.workload_build_us_per_query", us(timeIt(3, func() { gen.Workload("t91", n, seed) }))/float64(n))
}

// finishTrace writes the trace file and the tracer's own metrics. root names
// the span that is one whole traced operation.
func finishTrace(cfg config, tr *tracer, root string, res *workloadResult) error {
	res.Spans = tr.selfTimes()
	if st := res.Spans[root]; st.MeanUS > 0 {
		// The share of the operation no child span covers.
		res.PerLayer.set("trace.unattributed_share", st.SelfUS/st.MeanUS)
	}
	res.PerLayer.set("trace.spans", float64(len(tr.spans)))
	res.PerLayer.set("proc.peak_rss_mb", peakRSSMB())
	res.PerLayer.set("proc.reference_us", us(reference()))
	var err error
	res.TraceFile, err = tr.write(cfg.OutDir, cfg.Workload, cfg.Seed, res.Spans)
	return err
}

// allocPerCall is the heap bytes one call of fn allocates.
func allocPerCall(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), 0 where
// /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if rest, ok := strings.CutPrefix(s.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
