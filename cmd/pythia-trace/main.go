// Command pythia-trace makes one query's life visible: it plans a template
// instance, prints the EXPLAIN-style physical plan, the Algorithm 2 token
// serialization, the raw access-script statistics, and the processed
// (Algorithm 1) per-object trace that Pythia trains on.
//
// Usage:
//
//	pythia-trace -template t91 -sf 20 -instance 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/exec"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/serialize"
	"github.com/pythia-db/pythia/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints the trace to stdout and any
// error to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pythia-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		template = fs.String("template", "t91", "DSB template (t18, t19, t91)")
		sf       = fs.Int("sf", 20, "scale factor")
		seed     = fs.Uint64("seed", 7, "seed")
		instance = fs.Int("instance", 0, "which generated instance to trace")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pythia-trace: "+format+"\n", a...)
		return 1
	}
	tpls, err := dsb.ParseTemplates(*template)
	if err != nil {
		return fail("-template: %v", err)
	}
	if len(tpls) != 1 {
		return fail("-template %q: want one template", *template)
	}
	if *instance < 0 {
		return fail("-instance %d: want zero or more", *instance)
	}
	if *sf < 1 {
		return fail("-sf %d: want a scale factor of at least 1", *sf)
	}

	gen := dsb.NewGenerator(dsb.Config{ScaleFactor: *sf, Seed: *seed})
	queries := gen.Queries(tpls[0], *instance+1, *seed+1)
	q := queries[*instance]

	pl := plan.NewPlanner(gen.DB())
	root, err := pl.Plan(q)
	if err != nil {
		return fail("%v", err)
	}

	fmt.Fprintf(stdout, "=== %s instance %d ===\n\n", tpls[0], *instance)
	fmt.Fprintln(stdout, "physical plan:")
	fmt.Fprintln(stdout, root.Display())

	fmt.Fprintln(stdout, "serialized plan (Algorithm 2):")
	toks := serialize.Serialize(root, serialize.DefaultConfig())
	fmt.Fprintln(stdout, " ", strings.Join(toks, " "))
	fmt.Fprintf(stdout, "  (%d tokens)\n\n", len(toks))

	res := exec.Run(root)
	pages := trace.Process(res.Requests)
	seq := trace.SeqRequests(res.Requests)
	fmt.Fprintf(stdout, "execution: %d output rows, %d page requests\n", res.Rows, len(res.Requests))
	fmt.Fprintf(stdout, "  sequential requests:       %d\n", seq)
	fmt.Fprintf(stdout, "  non-sequential requests:   %d (%d distinct)\n\n", len(res.Requests)-seq, len(pages))

	// The trace is sorted by object, then offset: each object is one run.
	fmt.Fprintln(stdout, "processed trace (Algorithm 1 — per object, sorted offsets):")
	for len(pages) > 0 {
		obj := gen.DB().Registry.Lookup(pages[0].Object)
		n := 1
		for n < len(pages) && pages[n].Object == obj.ID {
			n++
		}
		preview := ""
		for _, p := range pages[:min(n, 12)] {
			preview += fmt.Sprintf(" %d", p.Page)
		}
		if n > 12 {
			preview += " ..."
		}
		fmt.Fprintf(stdout, "  %-45s (%s, %4d pages):%s\n", obj.Name, obj.Kind, n, preview)
		pages = pages[n:]
	}
	return 0
}
