package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// exactRepeat are the metrics that depend only on the seed: simulated results,
// counts and model quality. Two runs of one seed must agree on them exactly.
var exactRepeat = []string{
	"model.params", "predictor.models", "predictor.heldout_f1", "pythia.heldout_sim_speedup",
	"replay.sim_elapsed_ns.none", "replay.sim_elapsed_ns.oracle", "replay.sim_elapsed_ns.lossy",
	"replay.sim_speedup_oracle", "replay.sim_speedup_lossy", "replay.prefetch_wasted_ratio", "replay.foreground_disk_reads",
	"buffer.hit_ratio", "buffer.evictions", "oscache.hit_ratio", "oscache.readahead_pages",
	"serve.cache_hit_ratio", "serve.shed", "serve.inference_timeouts",
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func runTiny(t *testing.T, dir string) report {
	t.Helper()
	rep := report{Meta: hostMeta(5, "tiny", 1, "both")}
	for _, w := range workloadDefs {
		res, err := runners[w.Name](config{Workload: w.Name, Seed: 5, Seconds: 1, Trace: "both", Scale: scales["tiny"], OutDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	return rep
}

// TestSmoke runs all four workloads at the tiny scale, twice, and checks the
// shape of what they report.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	first, second := runTiny(t, dir), runTiny(t, dir)

	for i, res := range first.Workloads {
		line := summaryLine([]*workloadResult{res})
		for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
			m, ok := line.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: metric %s is not emitted", res.Name, d.Name)
				continue
			}
			if m.Unit != d.Unit || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: metric %s has unit %q, want %q", res.Name, d.Name, m.Unit, d.Unit)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
			}
		}
		if len(line.Metrics) != len(endToEndDefs)+len(perLayerDefs) {
			t.Errorf("%s: %d metrics emitted, %d defined", res.Name, len(line.Metrics), len(endToEndDefs)+len(perLayerDefs))
		}
		for _, d := range endToEndDefs {
			if res.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", res.Name, d.Name, res.EndToEnd[d.Name].Value)
			}
		}
		// The per-layer spans must account for the traced operation.
		if share := res.PerLayer["trace.unattributed_share"].Value; share < 0 || share > 0.05 {
			t.Errorf("%s: %.1f%% of the traced operation is in no child span", res.Name, 100*share)
		}
		checkTraceFile(t, res)
		for _, name := range exactRepeat {
			if a, b := res.PerLayer[name].Value, second.Workloads[i].PerLayer[name].Value; a != b {
				t.Errorf("%s: %s must repeat exactly for one seed, got %v then %v", res.Name, name, a, b)
			}
		}
	}

	byName := map[string]*workloadResult{}
	for _, res := range first.Workloads {
		byName[res.Name] = res
	}
	if v := byName["serve_hit"].PerLayer["serve.cache_hit_ratio"].Value; v != 1 {
		t.Errorf("serve_hit: cache hit ratio %v in the load phase, want 1", v)
	}
	if v := byName["serve_miss"].PerLayer["serve.cache_hit_ratio"].Value; v != 0 {
		t.Errorf("serve_miss: cache hit ratio %v, want 0", v)
	}

	// -compare: a report against itself is clean, a slower copy is a breach.
	write := func(name string, r report) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", first)
	var out bytes.Buffer
	if code := compareReports(&out, a, a); code != 0 {
		t.Errorf("comparing a report with itself exits %d:\n%s", code, out.String())
	}
	m := second.Workloads[0].EndToEnd["op_mean_ms"]
	m.Value = 2 * first.Workloads[0].EndToEnd["op_mean_ms"].Value
	second.Workloads[0].EndToEnd["op_mean_ms"] = m
	out.Reset()
	if code := compareReports(&out, a, write("b.json", second)); code != 1 || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("a doubled op_mean_ms exits %d without a breach:\n%s", code, out.String())
	}
}

// checkTraceFile reads the workload's trace file back and checks that every
// child span lies within its parent and shares its request id.
func checkTraceFile(t *testing.T, res *workloadResult) {
	t.Helper()
	data, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Errorf("%s: %v", res.Name, err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Errorf("%s: %s: %v", res.Name, res.TraceFile, err)
		return
	}
	if len(tf.Spans) == 0 || len(tf.Counts) == 0 {
		t.Errorf("%s: trace file has %d spans and %d counts", res.Name, len(tf.Spans), len(tf.Counts))
	}
	for _, s := range tf.Spans {
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d (%s) ends before it starts", res.Name, s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := tf.Spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Request != p.Request {
			t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", res.Name, s.ID, s.Name, p.ID, p.Name)
		}
	}
}

// TestBenchmarkJSON pins ../BENCHMARK.json to the definition tables; bench
// -contract prints the file they call for.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, contractJSON()) {
		t.Error("BENCHMARK.json differs from defs.go; regenerate it with: bash bench/run.sh -contract > BENCHMARK.json")
	}
	for _, w := range workloadDefs {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: the why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
