package analysis

import (
	"go/ast"
	"strings"
)

// Directive grammar
//
//	//pythia:<name>[ <reason>]
//
// written as a doc-comment line on a top-level declaration (no space after
// //, like //go:noinline, so gofmt preserves it and godoc hides it). A
// directive applies to the annotated declaration only — never to the whole
// file or package. Recognized names:
//
//	wallclock-ok     this declaration may read the wall clock (detclock)
//	maporder-ok      this declaration's map iteration is order-independent (mapiter)
//	errcheck-ok      this declaration may discard checked-API errors (errdiscard)
//	noalloc          opt this function into the noalloc analyzer
//	lockorder-ok     this declaration's lock acquisitions are exempt from
//	                 the global order (lockorder)
//	atomicfield-ok   this declaration may access atomic fields plainly
//	                 (atomicfield)
//	goleak-ok        this declaration's goroutines are deliberately
//	                 unbounded (goleak); because one function often spawns
//	                 both bounded and unbounded goroutines, goleak also
//	                 accepts the directive as a comment on the line of (or
//	                 immediately above) a single `go` statement
const directivePrefix = "//pythia:"

// Escape directives each suppress one analyzer; noalloc is the opt-in
// annotation for the allocation analyzer.
const (
	DirWallclockOK   = "wallclock-ok"
	DirMapOrderOK    = "maporder-ok"
	DirErrcheckOK    = "errcheck-ok"
	DirNoalloc       = "noalloc"
	DirLockorderOK   = "lockorder-ok"
	DirAtomicfieldOK = "atomicfield-ok"
	DirGoleakOK      = "goleak-ok"
)

// declDirectives returns the //pythia: directive names on decl's doc comment.
func declDirectives(decl ast.Decl) []string {
	var doc *ast.CommentGroup
	switch d := decl.(type) {
	case *ast.FuncDecl:
		doc = d.Doc
	case *ast.GenDecl:
		doc = d.Doc
	}
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, directivePrefix)
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(rest, " ")
		name = strings.TrimSpace(name)
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}

// hasDirective reports whether decl carries the named directive.
func hasDirective(decl ast.Decl, name string) bool {
	for _, d := range declDirectives(decl) {
		if d == name {
			return true
		}
	}
	return false
}
