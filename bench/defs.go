package main

import "encoding/json"

// The metric and workload tables below are the benchmark's contract. They are
// mirrored one-to-one in ../BENCHMARK.json (the smoke test fails when the two
// drift apart); -compare reads its regression bounds from here.

// metricDef names one metric, its unit, which direction is better, and — for
// end-to-end metrics — the share of the baseline by which it may worsen before
// -compare (and the PR driver) calls it a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"serve_miss", "POST /v1/predict with the prediction cache off: every request runs the transformer, so nn, model and predictor carry the round trip and cache-hit effects cannot reach the number"},
	{"serve_hit", "same server with the default cache, every predict a hit plus a feedback post on every 4th: nn does nothing, so spec, plan, fingerprint, cache, tracker, JSON and net/http are all of the cost"},
	{"train", "repeated fresh System.Train calls: the same nn kernels run forward, backward and Adam, which inference never calls, so a kernel change that helps serve_miss and hurts backward shows here"},
	{"replay", "System.Run over overlapping t18/t19/t91 queries under no prefetch, oracle and a lossy oracle: no model at all, replay, buffer, oscache and sim do the work on a working set larger than the buffer pool"},
}

// endToEndDefs are measured with tracing off. One operation ("op") is what a
// caller of the workload waits for: a verified predict round trip on the serve
// workloads, one fresh System.Train call on train, one round of the three
// replay strategies on replay. Every timing is scaled by the reference loop and
// is the median of ten per-segment values (see stats.go). The bounds are the
// contract's maximum: ten runs on this box still spread by 3 to 13 % in a calm
// hour and by up to 20 % in a bad one.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_mean_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// perLayerDefs are measured in the traced run, from the benchmark's own code
// around the public calls of each layer. A metric reads 0 on a workload that
// never calls its layer.
var perLayerDefs = []metricDef{
	// nn: kernels at the trained models' shapes (serve_miss, train).
	{Name: "nn.matmul_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.matmul_t1_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.matmul_t2_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.attention_fwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.attention_bwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.matmul_gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "nn.train_step_allocs", Unit: "count", Better: "lower"},
	// model: one per-object classifier.
	{Name: "model.predict_us", Unit: "us", Better: "lower"},
	{Name: "model.predict_batch_us_per_plan", Unit: "us", Better: "lower"},
	{Name: "model.train_epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "model.params", Unit: "count", Better: "lower"},
	// predictor: all models of one workload.
	{Name: "predictor.encode_us", Unit: "us", Better: "lower"},
	{Name: "predictor.predict_us", Unit: "us", Better: "lower"},
	{Name: "predictor.models", Unit: "count", Better: "lower"},
	{Name: "predictor.pages_per_prediction", Unit: "count", Better: "lower"},
	{Name: "predictor.train_s", Unit: "s", Better: "lower"},
	{Name: "predictor.heldout_f1", Unit: "ratio", Better: "higher"},
	// spec, plan, serialize: the request path before the model.
	{Name: "spec.decode_us", Unit: "us", Better: "lower"},
	{Name: "plan.plan_us", Unit: "us", Better: "lower"},
	{Name: "serialize.tokens_per_plan", Unit: "count", Better: "lower"},
	// serve: handler, inferencer, HTTP.
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.inferencer_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.inferencer_miss_us", Unit: "us", Better: "lower"},
	{Name: "serve.overhead_miss_us", Unit: "us", Better: "lower"},
	{Name: "serve.marshal_us", Unit: "us", Better: "lower"},
	{Name: "serve.feedback_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.feedback_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.batched_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.mean_batch_size", Unit: "count", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.inference_timeouts", Unit: "count", Better: "lower"},
	// pythia: the system facade, snapshots, workload building.
	{Name: "pythia.prefetch_us", Unit: "us", Better: "lower"},
	{Name: "pythia.save_ms", Unit: "ms", Better: "lower"},
	{Name: "pythia.load_ms", Unit: "ms", Better: "lower"},
	{Name: "pythia.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "pythia.workload_build_us_per_query", Unit: "us", Better: "lower"},
	{Name: "pythia.heldout_sim_speedup", Unit: "ratio", Better: "higher"},
	// replay: host time per simulated page request, and simulated results
	// that must repeat exactly.
	{Name: "replay.page_requests", Unit: "count", Better: "lower"},
	{Name: "replay.run_ns_per_request.none", Unit: "ns", Better: "lower"},
	{Name: "replay.run_ns_per_request.oracle", Unit: "ns", Better: "lower"},
	{Name: "replay.run_ns_per_request.lossy", Unit: "ns", Better: "lower"},
	{Name: "replay.observed_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "replay.sim_elapsed_ns.none", Unit: "ns", Better: "lower"},
	{Name: "replay.sim_elapsed_ns.oracle", Unit: "ns", Better: "lower"},
	{Name: "replay.sim_elapsed_ns.lossy", Unit: "ns", Better: "lower"},
	{Name: "replay.sim_speedup_oracle", Unit: "ratio", Better: "higher"},
	{Name: "replay.sim_speedup_lossy", Unit: "ratio", Better: "higher"},
	{Name: "replay.prefetch_wasted_ratio", Unit: "ratio", Better: "lower"},
	{Name: "replay.foreground_disk_reads", Unit: "count", Better: "lower"},
	// buffer, oscache: driven directly with the recorded request string.
	{Name: "buffer.get_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "buffer.evictions", Unit: "count", Better: "lower"},
	{Name: "oscache.read_ns", Unit: "ns", Better: "lower"},
	{Name: "oscache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "oscache.readahead_pages", Unit: "count", Better: "lower"},
	// process and the tracer itself.
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "proc.reference_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// runSeconds is the length of one measured run in BENCHMARK.json.
const runSeconds = 10

// contractJSON renders BENCHMARK.json from the tables above. Per-layer
// metrics have no bound and the field is left out.
func contractJSON() []byte {
	data, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, workloadDefs, endToEndDefs, perLayerDefs}, "", "  ")
	if err != nil {
		panic(err) // strings and numbers only
	}
	return append(data, '\n')
}
