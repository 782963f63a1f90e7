// Command pythia-experiments regenerates the paper's evaluation: every
// table and figure, at a configurable scale, printed as aligned text tables.
//
// Usage:
//
//	pythia-experiments                     # run everything at default scale
//	pythia-experiments -exp fig5,fig6      # run selected experiments
//	pythia-experiments -fast               # CI-scale quick pass
//	pythia-experiments -list               # list experiment ids
//	pythia-experiments -scale 100 -n 400   # closer to paper counts
//	pythia-experiments -exp fig5 -seeds 7-11  # five seeds, then mean ± s.e.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pythia-db/pythia"
	"github.com/pythia-db/pythia/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints to stdout and stderr, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pythia-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expList   = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		fast      = fs.Bool("fast", false, "run at CI scale instead of the default scale")
		list      = fs.Bool("list", false, "list experiment ids and exit")
		scale     = fs.Int("scale", 0, "override DSB scale factor")
		perTpl    = fs.Int("n", 0, "override query instances per DSB template")
		imdbN     = fs.Int("imdb-n", 0, "override IMDB template-1a instances")
		seed      = fs.Uint64("seed", 0, "override random seed")
		seedRange = fs.String("seeds", "", "run seeds A-B (1 ≤ A ≤ B, at most 100), min(GOMAXPROCS, B−A+1) at a time: each seed's output as -seed prints it, then every cell's mean ± s.e. over the seeds")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pythia-experiments: "+format+"\n", a...)
		return 1
	}
	switch {
	case *scale < 0:
		return fail("-scale %d: want a positive scale factor, or 0 for the default", *scale)
	case *perTpl < 0:
		return fail("-n %d: want a positive instance count, or 0 for the default", *perTpl)
	case *imdbN < 0:
		return fail("-imdb-n %d: want a positive instance count, or 0 for the default", *imdbN)
	}
	var seeds []uint64
	if *seedRange != "" {
		seedSet := false
		fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		if seedSet {
			return fail("-seeds and -seed cannot be combined")
		}
		var err error
		if seeds, err = parseSeeds(*seedRange); err != nil {
			return fail("-seeds %q: %v", *seedRange, err)
		}
	}

	names := pythia.ExperimentNames()
	if *list {
		fmt.Fprintln(stdout, strings.Join(names, "\n"))
		return 0
	}

	// Every id is checked before the suite is built, so a typo in the last
	// id does not cost the run of the ones before it.
	ids := names
	if *expList != "all" {
		ids = nil
		for _, id := range strings.Split(*expList, ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			}
			if !slices.Contains(names, id) {
				return fail("unknown experiment %q (have %s)", id, strings.Join(names, ", "))
			}
			ids = append(ids, id)
		}
	}

	cfg := pythia.DefaultExperimentConfig()
	if *fast {
		cfg = pythia.FastExperimentConfig()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *perTpl > 0 {
		cfg.PerTemplate = *perTpl
	}
	if *imdbN > 0 {
		cfg.IMDBInstances = *imdbN
	}
	if *seed > 0 {
		cfg.Seed = *seed
	}
	var err error
	if seeds == nil {
		_, err = runSuite(cfg, ids, stdout)
	} else {
		err = runSeeds(cfg, seeds, ids, stdout)
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
}

// runSuite runs the experiments on one fresh suite, printing a header, then
// each table with its wall time, then the whole suite's wall time, and
// returns the tables. A table's time includes the workloads and training it
// is the first to ask the suite's memo for, so in a run of several tables
// only the suite's time compares across commits.
func runSuite(cfg pythia.ExperimentConfig, ids []string, out io.Writer) ([]*pythia.ResultTable, error) {
	suiteStart := time.Now()
	suite := pythia.NewExperiments(cfg)
	fmt.Fprintf(out, "pythia-experiments: scale=%d instances/template=%d imdb=%d seed=%d\n\n",
		cfg.Scale, cfg.PerTemplate, cfg.IMDBInstances, cfg.Seed)
	var tabs []*pythia.ResultTable
	for _, id := range ids {
		start := time.Now()
		tab, err := suite.Run(id)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(out, tab.String())
		fmt.Fprintf(out, "(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
		tabs = append(tabs, tab)
	}
	fmt.Fprintf(out, "(suite took %s)\n", time.Since(suiteStart).Round(time.Millisecond))
	return tabs, nil
}

// runSeeds runs one suite per seed, min(GOMAXPROCS, len(seeds)) at a time,
// and prints each seed's output in seed order as soon as it and every seed
// before it are done, then each experiment's tables aggregated over the
// seeds. A suite shares nothing with another, so each seed prints what
// -seed prints for it alone.
func runSeeds(cfg pythia.ExperimentConfig, seeds []uint64, ids []string, out io.Writer) error {
	type result struct {
		buf  bytes.Buffer
		tabs []*pythia.ResultTable
		err  error
		done chan struct{}
	}
	results := make([]*result, len(seeds))
	for i := range results {
		results[i] = &result{done: make(chan struct{})}
	}
	start := time.Now()
	next := make(chan int, len(seeds))
	for i := range seeds {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(seeds)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cfg
				c.Seed = seeds[i]
				r := results[i]
				r.tabs, r.err = runSuite(c, ids, &r.buf)
				close(r.done)
			}
		}()
	}
	defer wg.Wait()

	for _, r := range results {
		<-r.done
		if r.err != nil {
			return r.err
		}
		if _, err := r.buf.WriteTo(out); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "pythia-experiments: %d seeds (%d–%d), mean ± s.e. per cell\n\n", len(seeds), seeds[0], seeds[len(seeds)-1])
	for j := range ids {
		tabs := make([]*pythia.ResultTable, len(seeds))
		for i, r := range results {
			tabs[i] = r.tabs[j]
		}
		agg, notes := experiments.Aggregate(seeds, tabs)
		fmt.Fprint(out, agg.String())
		for _, n := range notes {
			fmt.Fprintln(out, n)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "(%d seeds took %s)\n", len(seeds), time.Since(start).Round(time.Millisecond))
	return nil
}

// maxSeeds bounds a -seeds range; one default seed takes minutes.
const maxSeeds = 100

// parseSeeds reads "A-B" with 1 ≤ A ≤ B as the seeds A, A+1, …, B.
func parseSeeds(s string) ([]uint64, error) {
	lo, hi, ok := strings.Cut(s, "-")
	a, errA := strconv.ParseUint(lo, 10, 64)
	b, errB := strconv.ParseUint(hi, 10, 64)
	switch {
	case !ok || errA != nil || errB != nil || a < 1 || a > b:
		return nil, errors.New("want A-B with 1 ≤ A ≤ B")
	case b-a >= maxSeeds:
		return nil, fmt.Errorf("at most %d seeds", maxSeeds)
	}
	var seeds []uint64
	for x := a; x <= b; x++ {
		seeds = append(seeds, x)
	}
	return seeds, nil
}
