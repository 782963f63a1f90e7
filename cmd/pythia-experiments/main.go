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
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/pythia-db/pythia"
	"github.com/pythia-db/pythia/internal/fault"
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
		outPath   = fs.String("o", "", "also append output to this file")
		faultPlan = fs.String("fault-plan", "", "deterministic fault-injection plan for every replay, e.g. prefetch=0.05,exec=0.01 (empty = none; ext-chaos sweeps its own plans)")
		faultSeed = fs.Uint64("fault-seed", 1, "fault-injection PRNG seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
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
				fmt.Fprintf(stderr, "pythia-experiments: unknown experiment %q (have %s)\n", id, strings.Join(names, ", "))
				return 1
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
	plan, err := fault.ParsePlan(*faultPlan)
	if err != nil {
		fmt.Fprintln(stderr, "pythia-experiments:", err)
		return 1
	}
	cfg.FaultPlan = plan
	cfg.FaultSeed = *faultSeed

	out := stdout
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "pythia-experiments:", err)
			return 1
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	suite := pythia.NewExperiments(cfg)
	fmt.Fprintf(out, "pythia-experiments: scale=%d instances/template=%d imdb=%d seed=%d fault=%s\n\n",
		cfg.Scale, cfg.PerTemplate, cfg.IMDBInstances, cfg.Seed, cfg.FaultPlan)
	for _, id := range ids {
		start := time.Now()
		tab, err := suite.Run(id)
		if err != nil {
			fmt.Fprintln(stderr, "pythia-experiments:", err)
			return 1
		}
		fmt.Fprintln(out, tab.String())
		fmt.Fprintf(out, "(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
