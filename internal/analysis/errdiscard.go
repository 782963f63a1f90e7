package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Errdiscard forbids discarding the error results of the repo's validated
// construction APIs: plan.Planner.Plan, workload.Build, and any
// Normalize() (T, error). PR 2 converted these from panics to errors
// precisely so callers handle failure; assigning the error to _ (or
// dropping the whole result) silently reintroduces the panic-era blind
// spot. Valid-by-construction callers have MustPlan/MustBuild instead;
// there is no escape directive.
var Errdiscard = &Analyzer{
	Name: "errdiscard",
	Run:  runErrdiscard,
}

func runErrdiscard(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Rhs) != 1 {
					return true
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, label := checkedCallee(info, call)
				if fn == nil {
					return true
				}
				sig := fn.Type().(*types.Signature)
				for i := 0; i < sig.Results().Len() && i < len(s.Lhs); i++ {
					if !isErrorType(sig.Results().At(i).Type()) {
						continue
					}
					if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						pass.Reportf(s.Pos(), "error result of %s assigned to _ (handle it or use the Must variant)", label)
					}
				}
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn, label := checkedCallee(info, call); fn != nil {
					pass.Reportf(s.Pos(), "result and error of %s discarded (handle it or use the Must variant)", label)
				}
			}
			return true
		})
	}
}

// checkedCallee resolves call's callee and reports it (with a short label
// for diagnostics) when it is one of the checked APIs.
func checkedCallee(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	var fn *types.Func
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			fn, _ = sel.Obj().(*types.Func)
		} else {
			fn, _ = info.Uses[f.Sel].(*types.Func)
		}
	}
	if fn == nil || fn.Pkg() == nil {
		return nil, ""
	}
	sig := fn.Type().(*types.Signature)
	switch {
	case fn.Name() == "Plan" && receiverNamed(sig, "Planner") && strings.HasSuffix(fn.Pkg().Path(), "internal/plan"):
		return fn, "plan.Planner.Plan"
	case fn.Name() == "Build" && sig.Recv() == nil && strings.HasSuffix(fn.Pkg().Path(), "internal/workload"):
		return fn, "workload.Build"
	case fn.Name() == "Normalize" && sig.Recv() != nil && lastResultIsError(sig):
		return fn, "Normalize"
	}
	return nil, ""
}

// receiverNamed reports whether sig is a method on (possibly a pointer to)
// a named type with the given name.
func receiverNamed(sig *types.Signature, name string) bool {
	recv := sig.Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// lastResultIsError reports whether sig's final result is error.
func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	return res.Len() > 0 && isErrorType(res.At(res.Len()-1).Type())
}

// isErrorType reports whether t is the built-in error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
