// Command pythia-experiments regenerates the paper's evaluation: every
// table and figure, at a configurable scale, printed as aligned text tables.
//
// Usage:
//
//	pythia-experiments                     # run everything at default scale
//	pythia-experiments -exp fig6,fig9      # run selected experiments
//	pythia-experiments -fast               # CI-scale quick pass
//	pythia-experiments -list               # list experiment ids
//	pythia-experiments -scale 100 -n 400   # closer to paper counts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/pythia-db/pythia"
	"github.com/pythia-db/pythia/internal/fault"
)

func main() {
	var (
		expList   = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		fast      = flag.Bool("fast", false, "run at CI scale instead of the default scale")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		scale     = flag.Int("scale", 0, "override DSB scale factor")
		perTpl    = flag.Int("n", 0, "override query instances per DSB template")
		imdbN     = flag.Int("imdb-n", 0, "override IMDB template-1a instances")
		seed      = flag.Uint64("seed", 0, "override random seed")
		outPath   = flag.String("o", "", "also append output to this file")
		faultPlan = flag.String("fault-plan", "", "deterministic fault-injection plan for every replay, e.g. prefetch=0.05,exec=0.01 (empty = none; ext-chaos sweeps its own plans)")
		faultSeed = flag.Uint64("fault-seed", 1, "fault-injection PRNG seed")
	)
	flag.Parse()

	if *list {
		for _, id := range pythia.ExperimentNames() {
			fmt.Println(id)
		}
		return
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
		fmt.Fprintln(os.Stderr, "pythia-experiments:", err)
		os.Exit(1)
	}
	cfg.FaultPlan = plan
	cfg.FaultSeed = *faultSeed

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pythia-experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	ids := pythia.ExperimentNames()
	if *expList != "all" {
		ids = strings.Split(*expList, ",")
	}

	suite := pythia.NewExperiments(cfg)
	fmt.Fprintf(out, "pythia-experiments: scale=%d instances/template=%d imdb=%d seed=%d fault=%s\n\n",
		cfg.Scale, cfg.PerTemplate, cfg.IMDBInstances, cfg.Seed, cfg.FaultPlan)
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		start := time.Now()
		tab, err := suite.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pythia-experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintln(out, tab.String())
		fmt.Fprintf(out, "(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
