package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Goleak requires every `go` statement to be provably bounded. An unbounded
// goroutine is a slow leak: each request that spawns one pins its stack and
// captures until process exit, and the serve tier spawns a goroutine per
// cache miss on the request path.
// This is also the guardrail a background online-training goroutine (parked
// on the ROADMAP) would land behind. A goroutine counts as bounded
// when its body — a function literal, or a same-package function the
// statement calls — shows one of:
//
//   - a reference to a context.Context (cancellation is plumbed in);
//   - a receive from a struct{} channel (done/stop channels, ctx.Done()),
//     in a select or as a plain receive or range;
//   - a sync.WaitGroup Done whose WaitGroup is Wait-ed somewhere in the
//     package (the spawner joins it).
//
// Everything else needs //pythia:goleak-ok <reason> as a comment on the go
// statement's line or the line immediately above it, so one escape covers
// exactly one spawn. Test files are outside the loader's scope, so
// test-only goroutines are never flagged.
var Goleak = &Analyzer{
	Name: "goleak",
	Run:  runGoleak,
}

func runGoleak(pass *Pass) {
	info := pass.Pkg.Info
	decls := packageFuncDecls(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		okLines := goleakOKLines(pass.Pkg.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			line := pass.Pkg.Fset.Position(g.Pos()).Line
			if okLines[line] || okLines[line-1] {
				return true
			}
			body := goBody(info, decls, g)
			if body != nil && boundedBody(pass.Pkg, info, body) {
				return true
			}
			what := "goroutine"
			if body == nil {
				what = "goroutine calling outside the package"
			}
			pass.Reportf(g.Pos(), "%s is not provably bounded: no context.Context reference, no struct{}-channel receive, no awaited WaitGroup (bound it, or annotate the go statement //pythia:goleak-ok <reason>)", what)
			return true
		})
	}
}

// goleakOKLines maps the lines carrying a //pythia:goleak-ok comment.
func goleakOKLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, directivePrefix+DirGoleakOK) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// packageFuncDecls indexes the package's function declarations by object.
func packageFuncDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

// goBody resolves the spawned function's body: a literal's body directly,
// a named same-package function or method through its declaration. Calls
// into other packages (go srv.Serve(ln)) are unresolvable and return nil.
func goBody(info *types.Info, decls map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) *ast.BlockStmt {
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if fd, ok := decls[fn]; ok {
				return fd.Body
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if fd, ok := decls[fn]; ok {
				return fd.Body
			}
		}
	}
	return nil
}

// boundedBody reports whether body shows one of the recognized bounding
// constructs.
func boundedBody(pkg *Package, info *types.Info, body *ast.BlockStmt) bool {
	bounded := false
	var wgDones []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if bounded {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if isContextType(info.TypeOf(x)) {
				bounded = true
			}
		case *ast.SelectorExpr:
			if isContextType(info.TypeOf(x)) {
				bounded = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && isStructChan(info.TypeOf(x.X)) {
				bounded = true
			}
		case *ast.RangeStmt:
			if isStructChan(info.TypeOf(x.X)) {
				bounded = true
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && isWaitGroup(info.TypeOf(sel.X)) {
				if obj := refObject(info, sel.X); obj != nil {
					wgDones = append(wgDones, obj)
				}
			}
		}
		return true
	})
	if bounded {
		return true
	}
	for _, wg := range wgDones {
		if waitedInPackage(pkg, wg) {
			return true
		}
	}
	return false
}

// waitedInPackage reports whether wg.Wait() is called anywhere in the
// package on the same WaitGroup object the goroutine Done()s.
func waitedInPackage(pkg *Package, wg types.Object) bool {
	found := false
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Wait" {
				return true
			}
			if refObject(pkg.Info, sel.X) == wg {
				found = true
			}
			return true
		})
		if found {
			break
		}
	}
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isStructChan reports whether t is a channel of struct{} — the done/stop
// channel idiom (and the type of ctx.Done()).
func isStructChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isWaitGroup reports whether t (or *t) is sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
