// Command bench is the repository's one benchmark: four workloads over the
// serve, train and replay tiers, a handful of named end-to-end metrics from an
// untraced run and per-layer metrics from a traced run, with every output
// checked. See README.md for the rationale and BENCHMARK.json (repo root) for
// the contract.
//
//	bash bench/run.sh --workload serve_miss --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -workload all -seed 1 -out out/report.json
//	bash bench/run.sh -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pythia-db/pythia/internal/nn"
)

// scale sizes the inputs. full is what BENCHMARK.json measures; tiny exists so
// the smoke test runs all four workloads in seconds.
type scale struct {
	Name string

	ServeSF       int     // DSB scale factor of the serve and train database
	Corpus        int     // t91 instances generated
	HeldOut       float64 // share of the corpus held out of training
	ServeEpochs   int     // training epochs of the model the serve workloads load
	TrainEpochs   int     // epochs of one timed train operation
	QualityEpochs int     // epochs of the traced run's longer training
	ReplaySF      int
	ReplayPerTpl  int // instances per template (t18, t19, t91)
	Setups        int // set-ups timed per untraced run, at least
	TracedOps     int // cap on sequential traced operations
	KernelReps    int // repetitions behind each kernel timing
}

var scales = map[string]scale{
	"full": {Name: "full", ServeSF: 4, Corpus: 60, HeldOut: 0.2, ServeEpochs: 4, TrainEpochs: 1, QualityEpochs: 10,
		ReplaySF: 20, ReplayPerTpl: 24, Setups: 5, TracedOps: 400, KernelReps: 2000},
	"tiny": {Name: "tiny", ServeSF: 1, Corpus: 12, HeldOut: 0.25, ServeEpochs: 1, TrainEpochs: 1, QualityEpochs: 2,
		ReplaySF: 4, ReplayPerTpl: 4, Setups: 2, TracedOps: 24, KernelReps: 50},
}

// config is one invocation.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    string // "0" untraced, "1" traced, "both"
	Scale    scale
	OutDir   string // where trace files go
}

func (c config) untraced() bool { return c.Trace != "1" }
func (c config) traced() bool   { return c.Trace != "0" }
func (c config) phase() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// setUp runs a workload's set-up: under the clock, Scale.Setups times or for a
// fifth of the timed phase if that is more, when the run reports end-to-end
// metrics; once otherwise. The workload drives what the last call built.
func (c config) setUp(into metricSet, setup func() error) error {
	if c.untraced() {
		return timedSetups(c.Scale.Setups, c.phase()/5, into, setup)
	}
	return setup()
}

// workloadResult is everything one workload reports.
type workloadResult struct {
	Name      string    `json:"name"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	TraceFile string    `json:"trace_file,omitempty"`
	// Spans is the traced run's per-name mean and self time, in microseconds.
	Spans map[string]spanStat `json:"spans,omitempty"`
}

// checker counts verified operations. Every output the program under test
// hands back goes through check; a false condition is a failed operation.
type checker struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	msgs              []string
}

func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted.Add(1)
	if !ok {
		c.failed.Add(1)
		c.mu.Lock()
		if len(c.msgs) < 8 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
		c.mu.Unlock()
	}
	return ok
}

func (c *checker) into(r *workloadResult) {
	r.Attempted, r.Failed = c.attempted.Load(), c.failed.Load()
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.Failures = c.msgs
}

// report is the -out document.
type report struct {
	Meta      meta              `json:"meta"`
	Workloads []*workloadResult `json:"workloads"`
}

// meta records what the numbers were measured on.
type meta struct {
	Seed       uint64  `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      string  `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NNThreads  int     `json:"nn_threads"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Clients    int     `json:"clients"`
}

// clients is the closed-loop client count of the serve workloads: a DBMS
// backend calls predict and waits for the reply, and the box has two cores.
const clients = 2

var runners = map[string]func(config) (*workloadResult, error){
	"serve_miss": func(c config) (*workloadResult, error) { return runServe(c, false) },
	"serve_hit":  func(c config) (*workloadResult, error) { return runServe(c, true) },
	"train":      runTrain,
	"replay":     runReplay,
}

func main() {
	var (
		workload  = flag.String("workload", "all", "serve_miss, serve_hit, train, replay, or all")
		seed      = flag.Uint64("seed", 1, "seed of every generated input: database, corpus, split, request order, arrivals, lossy perturbation")
		seconds   = flag.Float64("seconds", 10, "length of the timed phase of each run")
		trace     = flag.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
		scaleName = flag.String("scale", "full", "input sizes: full or tiny")
		out       = flag.String("out", "", "write the full report (segments, sample counts, host) to this file")
		compare   = flag.Bool("compare", false, "compare two -out reports given as arguments and exit non-zero on a regression")
		contract  = flag.Bool("contract", false, "print BENCHMARK.json as the definition tables have it and exit")
	)
	flag.Parse()

	if *contract {
		os.Stdout.Write(contractJSON())
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two report files")
		}
		os.Exit(compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fatalf("unknown -scale %q", *scaleName)
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatalf("-trace must be 0, 1 or both")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	var names []string
	if *workload == "all" {
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	} else if _, ok := runners[*workload]; ok {
		names = []string{*workload}
	} else {
		fatalf("unknown -workload %q", *workload)
	}

	rep := report{Meta: hostMeta(*seed, sc.Name, *seconds, *trace)}
	for _, name := range names {
		res, err := runners[name](config{Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace, Scale: sc, OutDir: "out"})
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		rep.Workloads = append(rep.Workloads, res)
		printResult(os.Stdout, res)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(summaryLine(rep.Workloads))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", line)
	for _, r := range rep.Workloads {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

// summary is the last line of standard output: the driver's contract.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine folds the results into the contract line. With one workload the
// metric names are the bare names of BENCHMARK.json; with -workload all they
// are prefixed by the workload.
func summaryLine(results []*workloadResult) summary {
	s := summary{Correct: true, Metrics: map[string]wireMetric{}}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		prefix := ""
		if len(results) > 1 {
			prefix = r.Name + "/"
		}
		for name, m := range r.EndToEnd {
			s.Metrics[prefix+name] = wireMetric{m.Value, m.Unit}
		}
		// A per-layer metric the workload did not measure reads 0: the
		// layer is not on that workload's path.
		if len(r.PerLayer) > 0 {
			for _, d := range perLayerDefs {
				s.Metrics[prefix+d.Name] = wireMetric{r.PerLayer[d.Name].Value, d.Unit}
			}
		}
	}
	return s
}

func printResult(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d\n", r.Name, r.Correct, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, group := range []struct {
		defs []metricDef
		set  metricSet
	}{{endToEndDefs, r.EndToEnd}, {perLayerDefs, r.PerLayer}} {
		for _, d := range group.defs {
			m, ok := group.set[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-36s %14.4f %-8s", d.Name, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " n=%d", m.Samples)
			}
			if len(m.Segments) > 0 {
				fmt.Fprintf(w, " segments=%.4g", m.Segments)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Spans) > 0 {
		names := make([]string, 0, len(r.Spans))
		for name := range r.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "-- spans (mean / self, us) written to %s\n", r.TraceFile)
		for _, name := range names {
			st := r.Spans[name]
			fmt.Fprintf(w, "   %-28s n=%-5d %12.2f %12.2f\n", name, st.Count, st.MeanUS, st.SelfUS)
		}
	}
}

func hostMeta(seed uint64, scaleName string, seconds float64, trace string) meta {
	m := meta{Seed: seed, Scale: scaleName, Seconds: seconds, Trace: trace, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NNThreads: nn.DefaultThreads(), GoVersion: runtime.Version(),
		Commit: "unknown", Clients: clients}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
