package analysis

import (
	"go/ast"
	"go/types"
)

// Detclock forbids wall-clock reads and global math/rand state in
// deterministic packages. The virtual-clock simulation's results are only
// meaningful if two runs of the same seed are bitwise identical; one stray
// time.Now or rand.Intn silently breaks that. Wall-clock cost measurement
// (train/inference timing) must route through the internal/wallclock
// indirection so it is injectable and greppable. There is no escape
// directive: a package whose job is the wall clock is kept off the roster
// (config.go) instead.
var Detclock = &Analyzer{
	Name:          "detclock",
	Deterministic: true,
	Run:           runDetclock,
}

// wallClockFuncs are the time package functions that read or wait on the
// wall clock. Referencing one (call or function value) is a violation.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand names that do NOT touch the global
// source: constructing an explicitly seeded generator is the deterministic
// idiom (sim.Rand wraps exactly that).
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runDetclock(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := info.Uses[x].(*types.PkgName)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch pkgName.Imported().Path() {
			case "time":
				if wallClockFuncs[name] {
					pass.Reportf(sel.Pos(), "time.%s reads the wall clock in deterministic package %q (use sim virtual time, or route measurement through internal/wallclock)", name, pass.Pkg.Types.Name())
				}
			case "math/rand", "math/rand/v2":
				obj := info.Uses[sel.Sel]
				if _, isFunc := obj.(*types.Func); isFunc && !randConstructors[name] {
					pass.Reportf(sel.Pos(), "rand.%s uses the global math/rand source in deterministic package %q (use sim.NewRand or an explicitly seeded rand.New)", name, pass.Pkg.Types.Name())
				}
			}
			return true
		})
	}
}
