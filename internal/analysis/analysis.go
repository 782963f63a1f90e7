// Package analysis is pythia-vet's engine: a dependency-free static-analysis
// suite that enforces the repo's determinism, allocation, and error-handling
// invariants at compile time instead of hoping a test tickles a violation.
//
// Five analyzers run over every package of the module. Each one is kept
// because it names a real finding or a mutation of real code that it
// catches and no test does (DESIGN.md "Static invariants"):
//
//   - detclock: no wall-clock reads (time.Now/Since/Sleep/...) or global
//     math/rand state in deterministic packages. Wall-clock cost measurement
//     routes through the injectable internal/wallclock indirection.
//   - mapiter: no `range` over a map whose iteration order can reach an
//     output (slice append, event emission, string building, channel send)
//     in deterministic packages. The collect-then-sort idiom is recognized
//     and allowed.
//   - noalloc: functions annotated //pythia:noalloc (the arena/kernel hot
//     path, obs event sites) may not contain escaping composite literals,
//     fmt/log calls, closures capturing locals, or interface conversions.
//   - errdiscard: the error results of plan.Planner.Plan, workload.Build,
//     and any Normalize() may not be discarded.
//   - goleak: every `go` statement must be provably bounded — select on a
//     context/done channel, awaited WaitGroup, or //pythia:goleak-ok.
//
// The loader (load.go) builds the module's package graph with go/parser and
// go/types only — no golang.org/x/tools dependency — so `go run
// ./cmd/pythia-vet ./...` works on a bare toolchain.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position // resolved file:line:col
	Analyzer string         // reporting analyzer's name
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and docs.
	Name string
	// Deterministic restricts the analyzer to packages the driver marked
	// deterministic (Package.Deterministic).
	Deterministic bool
	// Run inspects the package and reports through the pass.
	Run func(*Pass)
}

// All lists every analyzer in the suite, in reporting order.
var All = []*Analyzer{Detclock, Mapiter, Noalloc, Errdiscard, Goleak}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzer over pkg, appending diagnostics via report.
func (a *Analyzer) run(pkg *Package, report func(Diagnostic)) {
	if a.Deterministic && !pkg.Deterministic {
		return
	}
	a.Run(&Pass{Analyzer: a, Pkg: pkg, report: report})
}

// Analyze runs this one analyzer over pkg and returns its diagnostics in
// source order. The pythia-vet driver uses it to time analyzers
// individually; RunAll is the all-in-one entry point.
func (a *Analyzer) Analyze(pkg *Package) []Diagnostic {
	var out []Diagnostic
	a.run(pkg, func(d Diagnostic) { out = append(out, d) })
	SortDiagnostics(out)
	return out
}

// RunAll executes every analyzer in All over pkg and returns the
// diagnostics in source order.
func RunAll(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, a := range All {
		a.run(pkg, func(d Diagnostic) { out = append(out, d) })
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// enclosingFunc returns the innermost FuncDecl of f containing pos, or nil.
func enclosingFunc(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && pos >= fd.Pos() && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
