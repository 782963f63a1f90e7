// Command pythia-quality replays DSB workloads and reports prediction quality
// against ground truth, read from the finished run: per-query and
// per-workload precision/recall/coverage/wasted-prefetch, the drift
// detector's verdict against the training-time baseline, and the baseline
// identity the verdict was measured against. Output is a text report plus a
// BENCH_quality.json document shaped for CI trend tracking.
//
// Two mixes drive the two interesting cases:
//
//   - Training mix (default): replay the held-out split of the same
//     templates the models trained on. Precision/recall measure model
//     quality; drift must stay "ok".
//
//     pythia-quality -templates t91 -sf 8 -n 40
//
//   - Held-out mix (-replay differs from -templates): replay templates the
//     baseline never saw. The drift alarm must fire — this is the CLI face
//     of the deterministic-drift acceptance test.
//
//     pythia-quality -templates t18 -replay t91 -fail-on-drift-alarm=false
//
// Gates for CI: -min-precision / -min-recall fail the run when the total
// set scores fall below the floor; -fail-on-drift-alarm fails it when the
// detector ends in (or ever reached) alarm.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/obs"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/workload"
)

func main() {
	var (
		templates = flag.String("templates", "t91", "comma-separated DSB templates to train on")
		replayTpl = flag.String("replay", "", "comma-separated templates to replay and score (empty = held-out split of -templates; a disjoint mix exercises the drift alarm)")
		sf        = flag.Int("sf", 8, "scale factor")
		n         = flag.Int("n", 40, "query instances per template")
		testFrac  = flag.Float64("test-frac", 0.3, "held-out fraction of each training workload replayed when -replay is empty")
		seed      = flag.Uint64("seed", 7, "seed")
		snapshot  = flag.String("snapshot", "", "load a model snapshot instead of training (baseline identity comes from the envelope)")
		out       = flag.String("out", "BENCH_quality.json", "JSON report path (empty = text only)")

		minPrecision = flag.Float64("min-precision", -1, "fail (exit nonzero) if total set precision falls below this floor (negative = no gate)")
		minRecall    = flag.Float64("min-recall", -1, "fail (exit nonzero) if total set recall falls below this floor (negative = no gate)")
		failOnAlarm  = flag.Bool("fail-on-drift-alarm", false, "fail (exit nonzero) if the drift detector ever reached alarm")
	)
	flag.Parse()

	gen := dsb.NewGenerator(dsb.Config{ScaleFactor: *sf, Seed: *seed})

	// The recorder is what makes the replay keep per-query counters
	// (QueryResult.Counters), the event half of every report row.
	cfg := corepythia.DefaultConfig()
	cfg.Recorder = &obs.Counters{}
	cfg, err := cfg.Normalize()
	if err != nil {
		log.Fatalf("pythia-quality: %v", err)
	}

	// Train (or load) the system; drift is measured against its
	// training-time baseline.
	var sys *corepythia.System
	if *snapshot != "" {
		f, err := os.Open(*snapshot)
		if err != nil {
			log.Fatalf("pythia-quality: %v", err)
		}
		sys, err = corepythia.LoadSystem(gen.DB(), cfg, f)
		f.Close()
		if err != nil {
			log.Fatalf("pythia-quality: loading %s: %v", *snapshot, err)
		}
		log.Printf("loaded snapshot %s (%d workloads)", *snapshot, len(sys.Workloads()))
	} else {
		sys = corepythia.New(gen.DB(), cfg)
	}

	// held-out test splits per training template, replayed when -replay is
	// empty so scores measure generalization, not memorization.
	heldOut := map[string][]*workload.Instance{}
	for _, tpl := range splitList(*templates) {
		w := gen.Workload(tpl, *n, *seed+1)
		train, test := w.Split(*testFrac, *seed+2)
		heldOut[tpl] = test
		if *snapshot == "" {
			start := time.Now()
			sys.Train(tpl, train)
			log.Printf("trained %s on %d instances in %s", tpl, len(train), time.Since(start).Round(time.Millisecond))
		}
	}

	// Assemble the replay mix: held-out splits of the training templates by
	// default, or full corpora of an explicit (possibly disjoint) -replay mix.
	var insts []*workload.Instance
	mix := splitList(*replayTpl)
	if len(mix) == 0 {
		for _, tpl := range splitList(*templates) {
			insts = append(insts, heldOut[tpl]...)
		}
	} else {
		for _, tpl := range mix {
			insts = append(insts, gen.Workload(tpl, *n, *seed+1).Instances...)
		}
	}
	if len(insts) == 0 {
		log.Fatal("pythia-quality: empty replay mix (raise -n or -test-frac)")
	}

	res := sys.Run(insts, nil, sys.Prefetch)
	drift := quality.NewMonitor(sys.Baseline(), quality.Options{})
	rows := make([]quality.Row, len(insts))
	for i, inst := range insts {
		drift.Observe(corepythia.DriftTokens(inst.Plan))
		q := &res.Queries[i]
		rows[i] = quality.Row{ID: q.ID, Predicted: q.Prefetch, Actual: inst.Pages, Counters: q.Counters}
		if tw := sys.Lookup(inst.Query); tw != nil {
			rows[i].Workload = tw.Name
		}
	}
	report := quality.NewReport(rows, drift)

	doc := qualityDoc{
		Benchmark: "pythia-quality",
		Templates: *templates,
		Replay:    *replayTpl,
		Scale:     *sf,
		Instances: *n,
		Seed:      *seed,
		Replayed:  len(res.Queries),
		Baseline:  sys.BaselineID(),
		Report:    report,
	}
	printReport(doc)
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatalf("pythia-quality: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("pythia-quality: %v", err)
		}
		log.Printf("wrote %s", *out)
	}

	gateFailed := false
	if *minPrecision >= 0 && report.Total.Precision < *minPrecision {
		log.Printf("GATE BREACH: total precision %.4f < -min-precision %g", report.Total.Precision, *minPrecision)
		gateFailed = true
	}
	if *minRecall >= 0 && report.Total.Recall < *minRecall {
		log.Printf("GATE BREACH: total recall %.4f < -min-recall %g", report.Total.Recall, *minRecall)
		gateFailed = true
	}
	if *failOnAlarm && (report.Drift.Alarms > 0 || report.Drift.State == quality.DriftAlarm.String()) {
		log.Printf("GATE BREACH: drift alarm fired (state %s, %d alarms, score %.4f)",
			report.Drift.State, report.Drift.Alarms, report.Drift.Score)
		gateFailed = true
	}
	if gateFailed {
		log.Fatal("pythia-quality: quality gate breached (see GATE BREACH lines above)")
	}
}

// qualityDoc is the whole BENCH_quality.json document: run parameters, the
// baseline identity, and the full report (per-query rows included,
// so CI diffs can drill down without rerunning).
type qualityDoc struct {
	Benchmark string                 `json:"benchmark"`
	Templates string                 `json:"templates"`
	Replay    string                 `json:"replay_templates,omitempty"`
	Scale     int                    `json:"scale_factor"`
	Instances int                    `json:"instances_per_template"`
	Seed      uint64                 `json:"seed"`
	Replayed  int                    `json:"queries_replayed"`
	Baseline  *corepythia.BaselineID `json:"baseline,omitempty"`
	Report    *quality.Report        `json:"report"`
}

// printReport renders the aligned text view: one row per workload, the
// total, and the drift verdict.
func printReport(doc qualityDoc) {
	r := doc.Report
	fmt.Printf("%-10s %8s %10s %8s %10s %8s %11s %9s %8s\n",
		"workload", "queries", "precision", "recall", "coverage", "wasted", "prefetched", "useful", "fallback")
	rows := append([]quality.WorkloadReport{}, r.Workloads...)
	rows = append(rows, r.Total)
	for _, w := range rows {
		name := w.Workload
		if name == "" {
			name = "(fallback)"
		}
		fmt.Printf("%-10s %8d %10.4f %8.4f %10.4f %8.4f %11d %9d %8d\n",
			name, w.Queries, w.Precision, w.Recall, w.Coverage, w.WastedRatio,
			w.Events.Prefetched, w.Events.Useful, w.Events.Fallbacks)
	}
	fmt.Printf("drift: state=%s score=%.4f evaluations=%d warnings=%d alarms=%d recoveries=%d\n",
		r.Drift.State, r.Drift.Score, r.Drift.Evaluations, r.Drift.Warnings, r.Drift.Alarms, r.Drift.Recoveries)
	if doc.Baseline != nil {
		fmt.Printf("baseline: hash=%s plans=%d workloads=%d train_time=%s\n",
			doc.Baseline.Hash, doc.Baseline.Plans, doc.Baseline.Workloads, doc.Baseline.TrainTime.Round(time.Millisecond))
	}
}

// splitList splits a comma-separated flag into trimmed non-empty parts.
func splitList(s string) []string {
	var parts []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}
