package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"time"

	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/serve"
	"github.com/pythia-db/pythia/internal/spec"
)

// traced is the serve workloads' per-layer run, in three parts: the
// closed-loop load again for half the time, for the numbers that only exist
// under concurrency; then the request path driven from here, sequentially, one
// call per layer with a span around each; then, on serve_miss, what the
// inferencer wraps — predictor and models — measured next to it.
func (e *serveEnv) traced(cfg config, hit bool, chk *checker, res *workloadResult) error {
	L := res.PerLayer
	if err := e.loadLayers(cfg.phase()/2, cfg.Seed+13, hit, chk, L); err != nil {
		return err
	}
	tr := newTracer()
	tokens, err := e.requestLayers(cfg.phase()/4, cfg.Scale.TracedOps, hit, chk, tr, L)
	if err != nil {
		return err
	}
	if !hit {
		e.missLayers(cfg.phase()/4, cfg.Scale.TracedOps, chk, tr, L)
		probeKernels(L, tokens, cfg.Scale.KernelReps)
		scoreHeldOut(L, e.sys, e.heldOut)
	}
	L.set("predictor.models", float64(len(e.tw.Pred.Models())))
	L.set("model.params", float64(e.tw.Pred.ParamCount()))
	L.set("predictor.train_s", e.tw.Pred.TrainTime.Seconds())
	probeSnapshot(L, chk, e.sys, e.heldOut[0])
	probeWorkloadBuild(L, e.gen, len(e.all), cfg.Seed+2)
	return finishTrace(cfg, tr, "request", res)
}

// loadLayers runs the closed-loop load and reads what only concurrency shows:
// the tail, the server's own cache and batching counters over exactly this
// phase, and heap bytes per predict.
func (e *serveEnv) loadLayers(d time.Duration, seed uint64, hit bool, chk *checker, L metricSet) error {
	before, err := e.stats()
	if err != nil {
		return err
	}
	var ops, feedback []opSample
	alloc := allocPerCall(func() { ops, feedback = e.load(d, seed, hit, chk) })
	after, err := e.stats()
	if err != nil {
		return err
	}
	if len(ops) == 0 {
		return fmt.Errorf("no verified predicts in the traced load phase")
	}
	lats := make([]float64, len(ops))
	for i, o := range ops {
		lats[i] = ms(o.lat)
	}
	sort.Float64s(lats)
	L.setFrom("serve.http_p50_ms", quantile(lats, 0.50), len(lats), nil)
	L.setFrom("serve.http_p99_ms", quantile(lats, 0.99), len(lats), nil)
	L.set("proc.alloc_bytes_per_op", alloc/float64(len(ops)))
	hits := after.PredCache.Hits - before.PredCache.Hits
	if lookups := hits + after.PredCache.Misses - before.PredCache.Misses; lookups > 0 {
		L.set("serve.cache_hit_ratio", hits/lookups)
	}
	batched := after.Batching.BatchedRequests - before.Batching.BatchedRequests
	L.set("serve.batched_share", batched/float64(len(ops)))
	if batches := after.Batching.Batches - before.Batching.Batches; batches > 0 {
		L.set("serve.mean_batch_size", batched/batches)
	}
	L.set("serve.shed", after.Shed)
	L.set("serve.inference_timeouts", after.Timeouts)
	if len(feedback) > 0 {
		fb := make([]float64, len(feedback))
		for i, o := range feedback {
			fb[i] = ms(o.lat)
		}
		L.setFrom("serve.feedback_p50_ms", median(fb), len(fb), nil)
	}
	return nil
}

// requestLayers walks corpus entries through the request path one layer at a
// time: decode, plan, encode and fingerprint, the inferencer, marshal. Every
// other request runs the same code with a nil tracer, and the ratio of the two
// medians is the tracing overhead. Each entry then goes through the real
// handler in-process and over HTTP; the difference is what net/http costs. It
// returns the mean token count of a plan.
func (e *serveEnv) requestLayers(d time.Duration, maxOps int, hit bool, chk *checker, tr *tracer, L metricSet) (int, error) {
	planner := plan.NewPlanner(e.gen.DB())
	inf := e.srv.Inferencer()
	handler := e.srv.Handler()
	reg := e.gen.DB().Registry
	ctx := context.Background()
	var tracedUS, plainUS, handlerUS, rttUS, fbHandlerUS []float64
	var tokens, pages, n int
	for start := time.Now(); n < maxOps && (n < 2 || time.Since(start) < d); n++ {
		i := n % len(e.bodies)
		t := tr
		if n%2 == 1 {
			t = nil
		}
		var (
			q    plan.Query
			root *plan.Node
			ids  []int
			pred serve.Prediction
			err  error
		)
		t0 := time.Now()
		req := t.start("request", -1, n)
		t.in("spec.decode", req, n, func() {
			var qs spec.QuerySpec
			if qs, err = spec.Decode(bytes.NewReader(e.bodies[i])); err == nil {
				q, err = qs.ToQuery()
			}
		})
		if err == nil {
			t.in("plan.plan", req, n, func() { root, err = planner.Plan(q) })
		}
		if err != nil {
			return 0, fmt.Errorf("corpus entry %d does not decode and plan: %w", i, err)
		}
		t.in("predictor.encode", req, n, func() {
			ids = e.tw.Pred.EncodePlan(root)
			predictor.Fingerprint(ids)
		})
		t.in("serve.inferencer", req, n, func() { pred, err = inf.Predict(ctx, q, root) })
		t.in("serve.marshal", req, n, func() {
			// The server's response type is private; this mirrors its fields.
			// Strings and integers only, so Marshal cannot fail.
			_, _ = json.Marshal(predictReply{Workload: pred.Workload, Cached: pred.Cached, Pages: toWire(reg, pred.Pages)})
		})
		t.end(req)
		if t != nil {
			tracedUS = append(tracedUS, us(time.Since(t0)))
		} else {
			plainUS = append(plainUS, us(time.Since(t0)))
		}
		chk.check(err == nil && pred.Cached == hit && slices.Equal(pred.Pages, e.expected[i]),
			"inferencer %d: err %v cached=%v, %d pages, %d expected", i, err, pred.Cached, len(pred.Pages), len(e.expected[i]))
		tr.count("spec.bytes_in", int64(len(e.bodies[i])))
		tr.count("serialize.tokens", int64(len(ids)))
		tr.count("predictor.pages_out", int64(len(pred.Pages)))
		tokens += len(ids)
		pages += len(pred.Pages)

		rec := httptest.NewRecorder()
		h := tr.start("serve.handler", -1, n)
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(e.bodies[i])))
		tr.end(h)
		handlerUS = append(handlerUS, tr.durationUS(h))
		handled, ok := e.checkPredict(chk, i, rec.Code, rec.Body.Bytes(), nil, &hit)
		t0 = time.Now()
		status, body, err := e.post("/v1/predict", e.bodies[i])
		rttUS = append(rttUS, us(time.Since(t0)))
		e.checkPredict(chk, i, status, body, err, &hit)

		if hit && ok && n%feedbackEvery == 0 {
			rec := httptest.NewRecorder()
			f := tr.start("serve.feedback_handler", -1, n)
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback",
				bytes.NewReader(feedbackBody(handled.PredictionID, e.truth[i]))))
			tr.end(f)
			fbHandlerUS = append(fbHandlerUS, tr.durationUS(f))
			e.checkFeedback(chk, i, rec.Code, rec.Body.Bytes(), nil)
		}
	}

	st := tr.selfTimes()
	for metric, name := range map[string]string{
		"spec.decode_us":      "spec.decode",
		"plan.plan_us":        "plan.plan",
		"predictor.encode_us": "predictor.encode",
		"serve.marshal_us":    "serve.marshal",
	} {
		L.setFrom(metric, st[name].MedianUS, st[name].Count, nil)
	}
	inferencer := "serve.inferencer_miss_us"
	if hit {
		inferencer = "serve.inferencer_hit_us"
		L.setFrom("serve.feedback_handler_us", median(fbHandlerUS), len(fbHandlerUS), nil)
	}
	L.setFrom(inferencer, st["serve.inferencer"].MedianUS, st["serve.inferencer"].Count, nil)
	L.setFrom("serve.handler_us", median(handlerUS), len(handlerUS), nil)
	L.setFrom("serve.http_overhead_us", median(rttUS)-median(handlerUS), len(rttUS), nil)
	L.set("serialize.tokens_per_plan", float64(tokens)/float64(n))
	L.set("predictor.pages_per_prediction", float64(pages)/float64(n))
	L.set("trace.overhead_ratio", median(tracedUS)/median(plainUS))
	return tokens / n, nil
}

// missLayers measures what the inferencer wraps on a cache miss. The
// inferencer and the bare predictor run back to back on the same plan, in
// alternating order, and serve.overhead_miss_us is the median of the paired
// differences: cache lookup, ring, queue, batch wait and health tracking are
// far below the run-to-run noise of two separate medians. Then each model on
// its own, PredictBatch at B=8, and System.Prefetch.
func (e *serveEnv) missLayers(d time.Duration, maxOps int, chk *checker, tr *tracer, L metricSet) {
	inf := e.srv.Inferencer()
	models := e.tw.Pred.Models()
	ctx := context.Background()
	var overheadUS []float64
	n := 0
	for start := time.Now(); n < maxOps && (n < 2 || time.Since(start) < d); n++ {
		inst := e.all[n%len(e.all)]
		var viaServer, direct int
		wrapped := func() {
			viaServer = tr.start("serve.inferencer_direct", -1, n)
			_, err := inf.Predict(ctx, inst.Query, inst.Plan)
			tr.end(viaServer)
			chk.check(err == nil, "inferencer on plan %d: %v", n, err)
		}
		bare := func() {
			direct = tr.start("predictor.predict", -1, n)
			pages := e.tw.Pred.PredictParallel(inst.Plan)
			tr.end(direct)
			chk.check(slices.Equal(e.sys.LimitPrefetch(pages), e.expected[n%len(e.all)]), "predictor on plan %d: page set differs from System.Prefetch", n)
		}
		if n%2 == 0 {
			wrapped()
			bare()
		} else {
			bare()
			wrapped()
		}
		overheadUS = append(overheadUS, tr.durationUS(viaServer)-tr.durationUS(direct))

		ids := e.tw.Pred.EncodePlan(inst.Plan)
		all := tr.start("model.predict_all", -1, n)
		for _, m := range models {
			tr.in("model.predict", all, n, func() { m.Predict(ids) })
		}
		tr.end(all)
		tr.in("pythia.prefetch", -1, n, func() { e.sys.Prefetch(inst) })
	}
	st := tr.selfTimes()
	L.setFrom("serve.overhead_miss_us", median(overheadUS), len(overheadUS), nil)
	L.setFrom("predictor.predict_us", st["predictor.predict"].MedianUS, st["predictor.predict"].Count, nil)
	L.setFrom("model.predict_us", st["model.predict"].MedianUS, st["model.predict"].Count, nil)
	L.setFrom("pythia.prefetch_us", st["pythia.prefetch"].MedianUS, st["pythia.prefetch"].Count, nil)

	const B = 8
	seqs := make([][]int, B)
	for i := range seqs {
		seqs[i] = e.tw.Pred.EncodePlan(e.all[i%len(e.all)].Plan)
	}
	var perPlan []float64
	for _, m := range models {
		perPlan = append(perPlan, us(timeIt(5, func() { m.PredictBatch(seqs) }))/B)
	}
	L.setFrom("model.predict_batch_us_per_plan", mean(perPlan), len(perPlan), nil)
}
