package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Mapiter forbids ranging over a map when the iteration order can reach an
// output in deterministic packages: appending to a slice, sending on a
// channel, writing to a builder/buffer, or emitting an event from inside the
// loop makes the result depend on Go's randomized map order. The standard
// collect-then-sort idiom is recognized: an append whose target is later
// passed to a sort call in the same function is allowed. There is no escape
// directive: an order-independent loop is written without an order-sensitive
// sink, or over sorted keys.
var Mapiter = &Analyzer{
	Name:          "mapiter",
	Deterministic: true,
	Run:           runMapiter,
}

// emitMethods are method names treated as order-sensitive sinks when called
// inside a map range: event emission and incremental output building.
var emitMethods = map[string]bool{
	"Record":      true,
	"Emit":        true,
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

func runMapiter(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, file, rng)
			return true
		})
	}
}

// checkMapRange scans one map-range body for order-sensitive sinks.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	enclosing := enclosingFunc(file, rng.Pos())
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(s.Pos(), "channel send inside range over map: receive order depends on map iteration (iterate sorted keys)")
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, enclosing, rng, s)
		case *ast.CallExpr:
			if name, ok := calleePackageFunc(info, s); ok && (name == "fmt" || name == "log") {
				pass.Reportf(s.Pos(), "%s call inside range over map: output order depends on map iteration (iterate sorted keys)", name)
				return true
			}
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok && emitMethods[sel.Sel.Name] {
				if _, isMethod := info.Selections[sel]; isMethod {
					pass.Reportf(s.Pos(), "%s call inside range over map: emission order depends on map iteration (iterate sorted keys)", sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// checkMapRangeAssign flags slice appends (unless the target is sorted later
// in the enclosing function) and writes through a slice index.
func checkMapRangeAssign(pass *Pass, enclosing *ast.FuncDecl, rng *ast.RangeStmt, s *ast.AssignStmt) {
	info := pass.Pkg.Info
	for _, rhs := range s.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(info, call) || len(call.Args) == 0 {
			continue
		}
		target := refObject(info, call.Args[0])
		if target != nil && sortedInFunc(info, enclosing, target) {
			continue
		}
		name := exprString(call.Args[0])
		pass.Reportf(s.Pos(), "append to %s inside range over map: element order depends on map iteration (sort %s before use, or iterate sorted keys)", name, name)
	}
	for _, lhs := range s.Lhs {
		idx, ok := lhs.(*ast.IndexExpr)
		if !ok {
			continue
		}
		if t := info.TypeOf(idx.X); t != nil {
			if _, isSlice := t.Underlying().(*types.Slice); isSlice {
				pass.Reportf(lhs.Pos(), "write through slice index inside range over map: element placement depends on map iteration (iterate sorted keys)")
			}
		}
	}
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// refObject resolves an ident or selector expression to the object it
// names (variable or struct field), or nil.
func refObject(info *types.Info, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			return sel.Obj()
		}
		return info.Uses[x.Sel]
	}
	return nil
}

// sortedInFunc reports whether fn contains a call to a sort-like function
// (package sort or slices, or any callee whose name contains "sort") with
// target among its argument references — the collect-then-sort idiom.
func sortedInFunc(info *types.Info, fn *ast.FuncDecl, target types.Object) bool {
	if fn == nil || fn.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSortish(info, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if e, ok := an.(ast.Expr); ok && refObject(info, e) == target {
					found = true
					return false
				}
				return true
			})
		}
		return true
	})
	return found
}

// isSortish reports whether call's callee is from package sort or slices,
// or has "sort" in its name.
func isSortish(info *types.Info, call *ast.CallExpr) bool {
	if pkg, ok := calleePackageFunc(info, call); ok && (pkg == "sort" || pkg == "slices") {
		return true
	}
	var name string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// calleePackageFunc returns the package name when call invokes a
// package-level function through a package selector (e.g. fmt.Println →
// "fmt").
func calleePackageFunc(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if pkgName, ok := info.Uses[x].(*types.PkgName); ok {
		return pkgName.Imported().Path(), true
	}
	return "", false
}

// exprString renders a short source form of simple expressions for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	}
	return "the slice"
}
