// Command pythia-train trains Pythia's models for one workload template and
// reports prediction quality and speedup on the held-out unseen queries —
// the end-to-end lifecycle of §3 and §5.1 in one command.
//
// Usage:
//
//	pythia-train -template t91 -sf 40 -n 120
//	pythia-train -workload imdb1a -n 60
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/pythia-db/pythia"
)

func main() {
	var (
		template = flag.String("template", "t91", "DSB template (t18, t19, t91) or imdb1a via -workload")
		workload = flag.String("workload", "", "set to imdb1a to use the IMDB workload instead of DSB")
		sf       = flag.Int("sf", 40, "scale factor")
		n        = flag.Int("n", 120, "query instances (paper: 1000 per DSB template)")
		testFrac = flag.Float64("test-frac", 0.1, "held-out fraction of unseen queries (paper: 0.05)")
		seed     = flag.Uint64("seed", 7, "seed")
	)
	flag.Parse()

	var (
		db   *pythia.Database
		name string
		w    *pythia.Workload
	)
	start := time.Now()
	if *workload == "imdb1a" {
		gen := pythia.NewIMDB(pythia.IMDBConfig{Scale: *sf, Seed: *seed})
		db, name = gen.DB(), "imdb1a"
		w = gen.Workload(*n, *seed+1)
	} else {
		gen := pythia.NewDSB(pythia.DSBConfig{ScaleFactor: *sf, Seed: *seed})
		db, name = gen.DB(), *template
		w = gen.Workload(*template, *n, *seed+1)
	}
	fmt.Printf("workload %s: %d instances executed and traced in %s\n",
		name, len(w.Instances), time.Since(start).Round(time.Millisecond))

	train, test := w.Split(*testFrac, *seed+2)
	fmt.Printf("split: %d train / %d unseen test queries\n", len(train), len(test))

	cfg := pythia.DefaultConfig()
	sys := pythia.New(db, cfg)
	start = time.Now()
	tw := sys.Train(name, train)
	fmt.Printf("trained %d models (%d parameters, vocab %d) in %s\n",
		len(tw.Pred.Models()), tw.Pred.ParamCount(), tw.Pred.VocabSize(),
		time.Since(start).Round(time.Millisecond))

	var sumF1, sumSp float64
	for _, inst := range test {
		pred := sys.Prefetch(inst)
		f1 := pythia.F1(pred, inst.Pages)
		sp := sys.SpeedupColdCache(inst, sys.Prefetch)
		sumF1 += f1
		sumSp += sp
		fmt.Printf("  unseen query %s#%d: predicted %d pages, truth %d, F1 %.3f, speedup %.2fx\n",
			inst.Query.Template, inst.Query.Instance, len(pred), len(inst.Pages), f1, sp)
	}
	if len(test) == 0 {
		fmt.Fprintln(os.Stderr, "pythia-train: no test queries (raise -n or -test-frac)")
		os.Exit(1)
	}
	fmt.Printf("mean over %d unseen queries: F1 %.3f, speedup %.2fx\n",
		len(test), sumF1/float64(len(test)), sumSp/float64(len(test)))
}
