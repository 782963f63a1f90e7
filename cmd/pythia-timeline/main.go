// Command pythia-timeline replays a workload with span tracing on and reads
// the run two ways: where its time went and whether it prefetched the right
// pages. It writes the execution timeline as Chrome trace-event JSON (open it
// at https://ui.perfetto.dev) and prints, from the same run, a per-query /
// per-object stall-attribution report — blocked on disk, copying from the OS
// cache, and how much disk time asynchronous prefetching hid — followed by a
// quality report: per-workload set precision and recall of the issued
// prefetches against each query's true pages, what the buffer pool did with
// them (coverage, wasted, useful, fallback reads), and the drift verdict of
// the replayed plans against the training-time baseline.
//
//	pythia-timeline -template t91 -sf 4 -n 8 -mode oracle -out t91.trace.json
//	pythia-timeline -mode pythia -sf 2 -n 16 -min-recall 0.1 -out ''
//
// Not to be confused with pythia-trace, which EXPLAINs one query's Algorithm
// 1/2 artifacts (plan tree, tokens, access trace). pythia-trace answers
// "which pages will this query touch"; pythia-timeline answers "where did
// the replay's time go, and how good were its prefetches".
//
// Modes:
//
//	oracle  prefetch each query's exact non-sequential page set (the ORCL
//	        baseline — no training, fast; isolates replay mechanics)
//	pythia  train on -train instances, then prefetch model predictions
//	none    default execution, no prefetching (the DFLT baseline)
//
// -min-recall fails the run (exit 1, after the reports) when the total set
// recall falls below the floor.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/obs"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/span"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints the reports to stdout and its
// progress to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pythia-timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		template  = fs.String("template", "t91", "DSB template to replay (t18, t19, t91)")
		sf        = fs.Int("sf", 4, "scale factor")
		seed      = fs.Uint64("seed", 7, "generator seed")
		n         = fs.Int("n", 8, "queries to replay")
		mode      = fs.String("mode", "oracle", "prefetch strategy: oracle, pythia, or none")
		train     = fs.Int("train", 40, "training instances (pythia mode only)")
		out       = fs.String("out", "pythia.trace.json", "Perfetto trace output path (empty = skip)")
		minRecall = fs.Float64("min-recall", 0, "fail (exit 1) if the total set recall falls below this floor")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pythia-timeline: "+format+"\n", a...)
		return 1
	}

	// Every argument is checked before the database is built, so a bad one
	// fails in milliseconds instead of after generation and training.
	if *n < 1 {
		return fail("-n %d: want at least one query", *n)
	}
	if *sf < 1 {
		return fail("-sf %d: want a scale factor of at least 1", *sf)
	}
	if *train < 1 {
		return fail("-train %d: want at least one instance", *train)
	}
	if *mode != "oracle" && *mode != "pythia" && *mode != "none" {
		return fail("unknown -mode %q (want oracle, pythia, or none)", *mode)
	}
	tpls, err := dsb.ParseTemplates(*template)
	if err != nil {
		return fail("-template: %v", err)
	}
	if len(tpls) != 1 {
		return fail("-template %q: want one template", *template)
	}
	tpl := tpls[0]

	gen := dsb.NewGenerator(dsb.Config{ScaleFactor: *sf, Seed: *seed})
	cfg := corepythia.DefaultConfig()
	tracer := span.New()
	cfg.Tracer = tracer
	// The recorder is what makes the replay keep per-query counters
	// (QueryResult.Counters), the event half of every quality row.
	counters := &obs.Counters{}
	cfg.Recorder = counters
	sys := corepythia.New(gen.DB(), cfg)

	var strategy corepythia.PrefetchFunc
	switch *mode {
	case "oracle":
		// The ORCL baseline: the query's own processed trace is the
		// prediction. No model, so the timeline isolates replay mechanics.
		strategy = func(inst *workload.Instance) []storage.PageID { return inst.Pages }
	case "pythia":
		logger.Printf("training %s (%d instances)...", tpl, *train)
		tw := gen.Workload(tpl, *train, *seed+1)
		sys.Train(tpl, tw.Instances)
		strategy = sys.Prefetch
	}

	insts := gen.Workload(tpl, *n, *seed+2).Instances
	logger.Printf("replaying %d %s queries (mode %s)...", len(insts), tpl, *mode)
	res := sys.Run(insts, nil, strategy)
	logger.Printf("replay done: %v total virtual time, %d spans recorded", res.TotalElapsed(), tracer.Len())

	if *out != "" {
		if err := exportTrace(*out, tracer.Spans()); err != nil {
			return fail("%v", err)
		}
		logger.Printf("wrote %s (load it at https://ui.perfetto.dev)", *out)
	}

	rep := span.BuildReport(tracer.Spans())
	reg := gen.DB().Registry
	err = rep.WriteText(stdout, func(id storage.ObjectID) string {
		if obj := reg.Lookup(id); obj != nil {
			return obj.Name
		}
		return ""
	})
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "\nobs reconciliation: disk_read=%d prefetch_hit=%d oscache_hit=%d\n",
		counters.Get(obs.DiskRead), counters.Get(obs.PrefetchHit), counters.Get(obs.OSCacheHit))

	// The quality report reads the same run: each query's issued set against
	// its true pages, its counter snapshot, and the replayed plans streamed
	// through a drift monitor against the training-time baseline (nil, so
	// drift stays off, when nothing was trained).
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
	fmt.Fprintln(stdout)
	writeQuality(stdout, report)

	if report.Total.Recall < *minRecall {
		return fail("total recall %.4f below -min-recall %g", report.Total.Recall, *minRecall)
	}
	return 0
}

// exportTrace exports the spans as Perfetto-loadable JSON.
func exportTrace(path string, spans []span.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := span.ExportChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("exporting trace: %w", err)
	}
	return f.Close()
}

// writeQuality renders the quality report: one row per workload (queries no
// trained workload matched form the "(no model)" row), the total, and the
// drift verdict.
func writeQuality(w io.Writer, r *quality.Report) {
	fmt.Fprintf(w, "%-10s %8s %10s %8s %10s %8s %11s %9s %8s\n",
		"workload", "queries", "precision", "recall", "coverage", "wasted", "prefetched", "useful", "fallback")
	for _, wr := range append(r.Workloads, r.Total) {
		name := wr.Workload
		if name == "" {
			name = "(no model)"
		}
		fmt.Fprintf(w, "%-10s %8d %10.4f %8.4f %10.4f %8.4f %11d %9d %8d\n",
			name, wr.Queries, wr.Precision, wr.Recall, wr.Coverage, wr.WastedRatio,
			wr.Events.Prefetched, wr.Events.Useful, wr.Events.Fallbacks)
	}
	fmt.Fprintf(w, "drift: state=%s score=%.4f evaluations=%d\n", r.Drift.State, r.Drift.Score, r.Drift.Evaluations)
}
