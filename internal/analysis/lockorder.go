package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockorder enforces one global mutex-acquisition order per package. The
// serve tier holds locks across layers — Pool.Swap holds swapMu while
// warming replicas whose predict path takes the health and predcache
// mutexes — and the only thing keeping that deadlock-free is that no path
// ever acquires those locks in the reverse order. The analyzer makes that
// prose invariant (DESIGN.md "Replica pool & model swap") mechanical:
//
//   - every sync.Mutex/sync.RWMutex acquisition is classified by its lock
//     class — the (owning named type, field) pair, or the variable for
//     non-field mutexes — so all instances of health.mu are one class;
//   - acquiring B while holding A records the edge A → B, both for direct
//     Lock calls and through same-package calls (a call made while holding
//     A to a function that may acquire B, transitively);
//   - methods of wrapper types that lock internally for the duration of a
//     call (span.Sync) count as instantaneous acquisitions;
//   - a cycle among the recorded edges is reported at every acquisition
//     site on the cycle, and Lock on a class already held by the same
//     expression is reported as re-entrant (self-deadlock: Go mutexes are
//     not recursive).
//
// Goroutine bodies (`go func` / `go f()`) start with an empty held set:
// locks taken by a spawned goroutine are not ordered against the spawner's.
// Deliberate exceptions carry //pythia:lockorder-ok <reason> on the
// enclosing declaration; the escape drops that site's edges only.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisitions must follow one global order; no re-entrant Lock",
	Run:  runLockorder,
}

// lockWrappers maps module-relative type names to the display name of the
// mutex their methods acquire for the duration of each call. span.Sync is
// the repo's only lock wrapper: every exported method locks Sync.mu around
// the wrapped tracer.
var lockWrappers = map[string]string{
	"internal/span.Sync": "span.Sync.mu",
}

// lockClass identifies one mutex up to instance: all values of a given
// struct field share a class, package-level and local mutex variables get
// their own.
type lockClass struct {
	key     string // unique identity
	display string // short form for messages
}

// lockEdge is one "to acquired while from was held" observation.
type lockEdge struct {
	from, to string // class keys
	pos      token.Pos
	detail   string // rendered message fragment for the site
}

// funcLocks is the per-function lock behavior used by the interprocedural
// pass: the classes a function may acquire (directly, then transitively
// after the fixpoint) and its same-package callees.
type funcLocks struct {
	decl     *ast.FuncDecl
	acquires map[string]lockClass
	callees  map[*types.Func]bool
}

func runLockorder(pass *Pass) {
	lo := &lockorderPass{
		pass:  pass,
		info:  pass.Pkg.Info,
		funcs: make(map[*types.Func]*funcLocks),
	}
	// Index every function declaration and summarize its direct acquisitions.
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := lo.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			lo.funcs[obj] = lo.summarize(fd)
		}
	}
	lo.fixpoint()
	// Walk every function (and every function literal, as its own empty-held
	// context) recording edges and re-entrancy.
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lo.walkBody(fd.Body)
		}
	}
	lo.reportCycles()
}

type lockorderPass struct {
	pass    *Pass
	info    *types.Info
	funcs   map[*types.Func]*funcLocks
	edges   []lockEdge
	classes map[string]lockClass
}

// summarize collects fn's directly acquired lock classes and same-package
// callees. `go` statements are excluded: a spawned goroutine's acquisitions
// are not ordered against the caller's held set. Function literals are
// included (deferred and immediately-invoked closures run on the caller's
// goroutine) except when they are the go statement's callee.
func (lo *lockorderPass) summarize(fn *ast.FuncDecl) *funcLocks {
	fl := &funcLocks{
		decl:     fn,
		acquires: make(map[string]lockClass),
		callees:  make(map[*types.Func]bool),
	}
	skip := goSubtrees(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cls, method, ok := lo.mutexOp(call); ok {
			if method == "Lock" || method == "RLock" {
				fl.acquires[cls.key] = cls
			}
			return true
		}
		if cls, ok := lo.wrapperCall(call); ok {
			fl.acquires[cls.key] = cls
			return true
		}
		if callee := lo.samePackageCallee(call); callee != nil {
			fl.callees[callee] = true
		}
		return true
	})
	return fl
}

// fixpoint closes every function's acquire set over its same-package call
// graph: after it, funcs[f].acquires holds every class f may take,
// transitively.
func (lo *lockorderPass) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, fl := range lo.funcs {
			for callee := range fl.callees {
				cfl, ok := lo.funcs[callee]
				if !ok {
					continue
				}
				for key, cls := range cfl.acquires {
					if _, ok := fl.acquires[key]; !ok {
						fl.acquires[key] = cls
						changed = true
					}
				}
			}
		}
	}
}

// heldLock is one currently held acquisition.
type heldLock struct {
	cls  lockClass
	expr string // rendered receiver, for re-entrancy messages
	rd   bool   // acquired via RLock
}

// walkBody tracks the held-lock set through body in source order and
// records ordering edges. Nested function literals are walked as separate
// empty-held contexts (they may run on another goroutine or after return);
// this trades a little precision on immediately-invoked closures for never
// inventing a held set the runtime cannot see.
func (lo *lockorderPass) walkBody(body *ast.BlockStmt) {
	var held []heldLock
	deferred := make(map[*ast.CallExpr]bool)
	spawned := make(map[*ast.CallExpr]bool)
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, x)
			return false
		case *ast.DeferStmt:
			deferred[x.Call] = true
		case *ast.GoStmt:
			// The spawned call runs with an empty held set: its literal (if
			// any) is walked separately via the FuncLit case, and a named
			// callee is walked as its own declaration, so the call itself
			// must not record edges under the spawner's held locks.
			spawned[x.Call] = true
		case *ast.CallExpr:
			if !spawned[x] {
				lo.visitCall(x, &held, deferred[x])
			}
		}
		return true
	})
	for _, lit := range lits {
		lo.walkBody(lit.Body)
	}
}

// visitCall updates the held set and records edges for one call site.
func (lo *lockorderPass) visitCall(call *ast.CallExpr, held *[]heldLock, isDeferred bool) {
	if cls, method, ok := lo.mutexOp(call); ok {
		switch method {
		case "Lock", "RLock":
			for _, h := range *held {
				if h.cls.key != cls.key {
					continue
				}
				if method == "RLock" && h.rd {
					return // RLock under RLock: unordered against itself
				}
				if !lo.pass.Suppressed(call.Pos(), DirLockorderOK) {
					lo.pass.Reportf(call.Pos(), "re-entrant %s of %s: already held since %s (Go mutexes self-deadlock; unlock first or annotate the declaration //pythia:lockorder-ok)",
						method, cls.display, h.expr)
				}
				return
			}
			for _, h := range *held {
				lo.addEdge(h.cls, cls, call.Pos(), "acquired directly")
			}
			*held = append(*held, heldLock{cls: cls, expr: renderRecv(call), rd: method == "RLock"})
		case "Unlock", "RUnlock":
			if isDeferred {
				return // released at return: held for the rest of the body
			}
			for i := len(*held) - 1; i >= 0; i-- {
				if (*held)[i].cls.key == cls.key {
					*held = append((*held)[:i], (*held)[i+1:]...)
					break
				}
			}
		}
		return
	}
	if cls, ok := lo.wrapperCall(call); ok {
		for _, h := range *held {
			lo.addEdge(h.cls, cls, call.Pos(), "acquired for the duration of the call")
		}
		return
	}
	callee := lo.samePackageCallee(call)
	if callee == nil {
		return
	}
	fl, ok := lo.funcs[callee]
	if !ok || len(*held) == 0 {
		return
	}
	for _, h := range *held {
		for _, cls := range fl.acquires {
			if cls.key == h.cls.key {
				if !lo.pass.Suppressed(call.Pos(), DirLockorderOK) {
					lo.pass.Reportf(call.Pos(), "call to %s while holding %s: %s may acquire %s again (re-entrant deadlock; restructure so the callee runs with the lock released, use a caller-holds-lock helper, or annotate the declaration //pythia:lockorder-ok)",
						callee.Name(), h.cls.display, callee.Name(), cls.display)
				}
				continue
			}
			lo.addEdge(h.cls, cls, call.Pos(), "acquired via call to "+callee.Name())
		}
	}
}

// addEdge records one from→to ordering observation (self-edges are handled
// as re-entrancy at the site, never as graph edges).
func (lo *lockorderPass) addEdge(from, to lockClass, pos token.Pos, detail string) {
	if from.key == to.key {
		return
	}
	if lo.classes == nil {
		lo.classes = make(map[string]lockClass)
	}
	lo.classes[from.key] = from
	lo.classes[to.key] = to
	lo.edges = append(lo.edges, lockEdge{from: from.key, to: to.key, pos: pos, detail: detail})
}

// reportCycles finds strongly connected components in the recorded edge
// graph and reports every unsuppressed acquisition site whose edge stays
// inside one component — each of those sites participates in a cycle.
func (lo *lockorderPass) reportCycles() {
	var live []lockEdge
	for _, e := range lo.edges {
		if !lo.pass.Suppressed(e.pos, DirLockorderOK) {
			live = append(live, e)
		}
	}
	adj := make(map[string]map[string]bool)
	for _, e := range live {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]bool)
		}
		adj[e.from][e.to] = true
	}
	comp := sccs(adj)
	for _, e := range live {
		if comp[e.from] != 0 && comp[e.from] == comp[e.to] {
			members := make([]string, 0, 4)
			for key, c := range comp {
				if c == comp[e.from] {
					members = append(members, lo.classes[key].display)
				}
			}
			sort.Strings(members)
			lo.pass.Reportf(e.pos, "lock-order cycle among {%s}: %s %s while %s is held, but another path acquires them in the reverse order (pick one global order or annotate the declaration //pythia:lockorder-ok)",
				strings.Join(members, ", "), lo.classes[e.to].display, e.detail, lo.classes[e.from].display)
		}
	}
}

// sccs assigns a component id to every node in a non-trivial (size > 1)
// strongly connected component; nodes outside any cycle map to 0.
func sccs(adj map[string]map[string]bool) map[string]int {
	nodes := make([]string, 0, len(adj))
	seen := make(map[string]bool)
	for from, tos := range adj {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for to := range tos {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, compID := 1, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(adj[v]))
		for to := range adj[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) > 1 {
				compID++
				for _, m := range members {
					comp[m] = compID
				}
			}
		}
	}
	for _, v := range nodes {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return comp
}

// mutexOp classifies call as a sync.Mutex/sync.RWMutex method call,
// returning the receiver's lock class and the method name.
func (lo *lockorderPass) mutexOp(call *ast.CallExpr) (lockClass, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockClass{}, "", false
	}
	if !isSyncMutex(lo.info.TypeOf(sel.X)) {
		return lockClass{}, "", false
	}
	cls, ok := lo.classOf(sel.X)
	if !ok {
		return lockClass{}, "", false
	}
	return cls, sel.Sel.Name, true
}

// classOf maps a mutex-valued expression to its lock class.
func (lo *lockorderPass) classOf(e ast.Expr) (lockClass, bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		sel, ok := lo.info.Selections[x]
		if !ok {
			break
		}
		field, ok := sel.Obj().(*types.Var)
		if !ok || !field.IsField() {
			break
		}
		owner := namedName(sel.Recv())
		if owner == "" {
			owner = lo.pass.Pkg.Fset.Position(field.Pos()).String()
		}
		key := owner + "." + field.Name()
		return lockClass{key: key, display: key}, true
	case *ast.Ident:
		obj, ok := lo.info.Uses[x].(*types.Var)
		if !ok {
			break
		}
		if obj.Parent() == lo.pass.Pkg.Types.Scope() {
			return lockClass{key: "var " + obj.Name(), display: obj.Name()}, true
		}
		// Local mutexes are keyed by declaration position so identically
		// named locals in different functions never merge into one class.
		return lockClass{
			key:     "local " + obj.Name() + "@" + lo.pass.Pkg.Fset.Position(obj.Pos()).String(),
			display: obj.Name(),
		}, true
	}
	return lockClass{}, false
}

// wrapperCall reports whether call invokes a method of a lock-wrapper type
// (lockWrappers), yielding the wrapped mutex's class.
func (lo *lockorderPass) wrapperCall(call *ast.CallExpr) (lockClass, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, false
	}
	t := lo.info.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return lockClass{}, false
	}
	rel := strings.TrimPrefix(named.Obj().Pkg().Path(), lo.pass.Pkg.Module+"/")
	if display, ok := lockWrappers[rel+"."+named.Obj().Name()]; ok {
		return lockClass{key: display, display: display}, true
	}
	return lockClass{}, false
}

// samePackageCallee resolves call to a function or method declared in the
// analyzed package, or nil.
func (lo *lockorderPass) samePackageCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = lo.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = lo.info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() != lo.pass.Pkg.Types {
		return nil
	}
	return fn
}

// goSubtrees collects the callee subtrees of every go statement in body so
// the summary walk can skip them.
func goSubtrees(body *ast.BlockStmt) map[ast.Node]bool {
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			skip[g.Call] = true
		}
		return true
	})
	return skip
}

// isSyncMutex reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// namedName returns the bare name of t's named type (through one pointer),
// or "".
func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// renderRecv renders the mutex receiver of a Lock/Unlock call for messages.
func renderRecv(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return exprString(sel.X) + "." + sel.Sel.Name
	}
	return "Lock"
}
