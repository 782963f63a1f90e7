// Command pythia-vet runs the repo's custom static-analysis suite of five
// analyzers: detclock (no wall clock or global math/rand in deterministic
// packages), mapiter (no output-reaching map iteration there), noalloc
// (//pythia:noalloc functions must not allocate per call), errdiscard
// (Plan/Build/Normalize errors must be handled), and goleak (every go
// statement provably bounded). See DESIGN.md "Static invariants"; the
// analyzers' own fixtures run under `go test ./internal/analysis`.
//
// Usage:
//
//	go run ./cmd/pythia-vet ./...        # whole module (what CI runs)
//	go run ./cmd/pythia-vet ./internal/sim ./internal/replay/...
//	go run ./cmd/pythia-vet -gha ./...   # GitHub ::error annotations
//
// -timing <file> writes a per-analyzer wall-time table (markdown; "-" for
// stdout) so CI can publish lint cost in the job summary.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/pythia-db/pythia/internal/analysis"
)

func main() {
	gha := flag.Bool("gha", false, "emit diagnostics as GitHub Actions ::error annotations")
	timing := flag.String("timing", "", "write a per-analyzer timing table (markdown) to this file, or - for stdout")
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, module, err := analysis.FindModule(cwd)
	if err != nil {
		fatal(err)
	}

	paths, err := resolvePatterns(root, module, cwd, flag.Args())
	if err != nil {
		fatal(err)
	}

	loader := analysis.NewLoader(root, module)
	var diags []analysis.Diagnostic
	elapsed := make(map[string]time.Duration, len(analysis.All))
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		pkg.Deterministic = analysis.IsDeterministic(module, path)
		for _, a := range analysis.All {
			start := time.Now()
			diags = append(diags, a.Analyze(pkg)...)
			elapsed[a.Name] += time.Since(start)
		}
	}
	analysis.SortDiagnostics(diags)

	if *timing != "" {
		if err := writeTiming(*timing, elapsed, len(paths)); err != nil {
			fatal(err)
		}
	}

	for _, d := range diags {
		if *gha {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=pythia-vet %s::%s\n",
				relName(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, ghaEscape(d.Message))
		} else {
			fmt.Printf("%s:%d:%d: %s: %s\n", relName(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pythia-vet: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

// writeTiming renders the per-analyzer wall-time table CI appends to the
// job summary.
func writeTiming(dest string, elapsed map[string]time.Duration, pkgs int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "### pythia-vet timing (%d packages)\n\n", pkgs)
	b.WriteString("| analyzer | wall time |\n|---|---|\n")
	var total time.Duration
	for _, a := range analysis.All {
		fmt.Fprintf(&b, "| %s | %s |\n", a.Name, elapsed[a.Name].Round(time.Microsecond))
		total += elapsed[a.Name]
	}
	fmt.Fprintf(&b, "| **total** | **%s** |\n", total.Round(time.Microsecond))
	if dest == "-" {
		_, err := os.Stdout.WriteString(b.String())
		return err
	}
	return os.WriteFile(dest, []byte(b.String()), 0o644)
}

// relName shortens filename relative to base when it stays inside it.
func relName(base, filename string) string {
	if rel, err := filepath.Rel(base, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}

// ghaEscape encodes the characters GitHub workflow commands reserve.
func ghaEscape(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// resolvePatterns expands the command-line package patterns ("./...",
// "./dir/...", "./dir", or bare module-relative paths) into import paths.
func resolvePatterns(root, module, cwd string, args []string) ([]string, error) {
	loader := analysis.NewLoader(root, module)
	all, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return all, nil
	}
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, arg := range args {
		recursive := false
		if arg == "all" {
			arg = "./..."
		}
		if strings.HasSuffix(arg, "/...") || arg == "..." {
			recursive = true
			arg = strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/")
			if arg == "" {
				arg = "."
			}
		}
		abs := arg
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, arg)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("pythia-vet: %s is outside module %s", arg, module)
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		if !recursive {
			add(path)
			continue
		}
		for _, p := range all {
			if p == path || strings.HasPrefix(p, path+"/") || path == module {
				add(p)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pythia-vet:", err)
	os.Exit(2)
}
