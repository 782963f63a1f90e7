package analysis

import (
	"go/ast"
	"strings"
)

// Directive grammar
//
//	//pythia:<name>[ <reason>]
//
// (no space after //, like //go:noinline, so gofmt preserves it and godoc
// hides it). Two names are recognized:
//
//	noalloc     a doc-comment line on a function declaration, opting it
//	            into the noalloc analyzer
//	goleak-ok   a comment on the line of (or immediately above) one `go`
//	            statement whose goroutine is deliberately unbounded; it
//	            silences goleak for that statement only
const directivePrefix = "//pythia:"

// The two directive names.
const (
	DirNoalloc  = "noalloc"
	DirGoleakOK = "goleak-ok"
)

// hasDirective reports whether fn's doc comment carries the named directive.
func hasDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, directivePrefix)
		if !ok {
			continue
		}
		if d, _, _ := strings.Cut(rest, " "); strings.TrimSpace(d) == name {
			return true
		}
	}
	return false
}
