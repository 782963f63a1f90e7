package analysis

import (
	"go/ast"
	"go/types"
)

// Noalloc checks functions annotated //pythia:noalloc — the arena/kernel hot
// path and the obs event sites, where one allocation per call puts the
// garbage collector on the training or replay profile. The analyzer is a
// shallow per-function check for the construct classes that heap-allocate
// on every execution:
//
//   - composite literals whose address is taken (&T{...}) and map/slice
//     literals (backing-store allocation);
//   - fmt and log calls (interface boxing plus formatting buffers);
//   - func literals capturing local variables (closure allocation);
//   - interface conversions, explicit or implicit (convT boxing), in calls,
//     assignments, and returns.
//
// Amortized-growth appends and arena-recycled buffers are deliberately
// allowed: the arena's rewound chunks are exactly how the hot path stays
// allocation-free in steady state (see internal/nn/arena.go and
// TestArenaSteadyStateAllocs). Opting a function in is the annotation
// itself; opting out is removing it.
var Noalloc = &Analyzer{
	Name: "noalloc",
	Run:  runNoalloc,
}

func runNoalloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn, DirNoalloc) {
				continue
			}
			checkNoalloc(pass, fn)
		}
	}
}

func checkNoalloc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	sig, _ := info.Defs[fn.Name].(*types.Func)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if lit, ok := x.X.(*ast.CompositeLit); ok && x.Op.String() == "&" {
				pass.Reportf(lit.Pos(), "escaping composite literal (&%s{...}) in //pythia:noalloc function %s", typeName(info, lit), fn.Name.Name)
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					pass.Reportf(x.Pos(), "map literal allocates in //pythia:noalloc function %s", fn.Name.Name)
				case *types.Slice:
					pass.Reportf(x.Pos(), "slice literal allocates its backing array in //pythia:noalloc function %s", fn.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkNoallocCall(pass, fn, x)
		case *ast.FuncLit:
			if v := capturedLocal(info, pass.Pkg.Types, x); v != nil {
				pass.Reportf(x.Pos(), "func literal captures local %q (closure allocation) in //pythia:noalloc function %s", v.Name(), fn.Name.Name)
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i < len(x.Rhs) && isInterfaceConversion(info, info.TypeOf(lhs), x.Rhs[i]) {
					pass.Reportf(x.Rhs[i].Pos(), "implicit interface conversion in assignment (boxing allocation) in //pythia:noalloc function %s", fn.Name.Name)
				}
			}
		case *ast.ReturnStmt:
			if sig == nil {
				return true
			}
			results := sig.Type().(*types.Signature).Results()
			if len(x.Results) != results.Len() {
				return true
			}
			for i, res := range x.Results {
				if isInterfaceConversion(info, results.At(i).Type(), res) {
					pass.Reportf(res.Pos(), "implicit interface conversion in return (boxing allocation) in //pythia:noalloc function %s", fn.Name.Name)
				}
			}
		}
		return true
	})
}

// checkNoallocCall flags fmt/log calls, explicit conversions to interface
// types, and concrete arguments passed to interface parameters.
func checkNoallocCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.Pkg.Info
	if pkg, ok := calleePackageFunc(info, call); ok && (pkg == "fmt" || pkg == "log") {
		pass.Reportf(call.Pos(), "%s call allocates in //pythia:noalloc function %s", pkg, fn.Name.Name)
		return
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsBuiltin() {
		return
	}
	if tv.IsType() {
		if len(call.Args) == 1 && isInterfaceConversion(info, tv.Type, call.Args[0]) {
			pass.Reportf(call.Pos(), "conversion to interface type (boxing allocation) in //pythia:noalloc function %s", fn.Name.Name)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis.IsValid() {
				pt = last
			} else if s, ok := last.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if isInterfaceConversion(info, pt, arg) {
			pass.Reportf(arg.Pos(), "concrete value passed to interface parameter (boxing allocation) in //pythia:noalloc function %s", fn.Name.Name)
		}
	}
}

// isInterfaceConversion reports whether assigning src to a destination of
// type dst boxes a concrete value into an interface.
func isInterfaceConversion(info *types.Info, dst types.Type, src ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := info.Types[src]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	if _, isTuple := tv.Type.(*types.Tuple); isTuple {
		return false
	}
	return !types.IsInterface(tv.Type)
}

// capturedLocal returns a local variable (declared outside lit but not at
// package scope) that lit's body references, or nil.
func capturedLocal(info *types.Info, pkg *types.Package, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pkg.Scope() || v.Pkg() != pkg {
			return true // package-level or foreign: no closure capture cost
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v
		}
		return true
	})
	return captured
}

// typeName renders a composite literal's type for messages.
func typeName(info *types.Info, lit *ast.CompositeLit) string {
	if t := info.TypeOf(lit); t != nil {
		return t.String()
	}
	return "T"
}
