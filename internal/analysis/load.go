package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the import path.
	Path string
	// Fset resolves positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info hold the go/types results.
	Types *types.Package
	Info  *types.Info
	// Deterministic marks the package as one whose results must be bitwise
	// reproducible; the driver sets it from DeterministicPackages (fixture
	// harnesses set it directly).
	Deterministic bool
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Loader parses and type-checks module packages with the standard library
// resolved through the stdlib source importer — no external dependencies.
// One Loader caches every package it touches, so loading the whole module
// type-checks each import exactly once.
type Loader struct {
	Fset *token.FileSet

	root     string // module root directory
	module   string // module path
	std      types.ImporterFrom
	pkgs     map[string]*Package // loaded module packages, by import path
	checking map[string]bool     // cycle guard
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		root:     root,
		module:   modulePath,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
	}
}

// inModule reports whether path names a package of this module.
func (l *Loader) inModule(path string) bool {
	return path == l.module || strings.HasPrefix(path, l.module+"/")
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// buildsHere reports whether the non-test Go file dir/name is part of its
// package for this GOOS/GOARCH. The build constraints decide, as they do for
// the compiler: a function declared in an _amd64.go file and defined again
// under //go:build !amd64 is one function, not a redeclaration.
func buildsHere(dir, name string) (bool, error) {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false, nil
	}
	return build.Default.MatchFile(dir, name)
}

// ModulePackages walks the module tree and returns the import paths of every
// package directory, in sorted order. testdata trees, hidden directories,
// and directories with no Go file for this platform are skipped.
func (l *Loader) ModulePackages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if ok, err := buildsHere(filepath.Dir(p), d.Name()); !ok || err != nil {
			return err
		}
		rel, err := filepath.Rel(l.root, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := l.module
		if rel != "." {
			path = l.module + "/" + filepath.ToSlash(rel)
		}
		out = append(out, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	// Dedupe (one entry per .go file was appended).
	uniq := out[:0]
	for i, p := range out {
		if i == 0 || out[i-1] != p {
			uniq = append(uniq, p)
		}
	}
	return uniq, nil
}

// Load parses and type-checks the module package at the given import path
// (loading its imports first). Results are cached.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if !l.inModule(path) {
		return nil, fmt.Errorf("analysis: %s is outside module %s", path, l.module)
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		ok, err := buildsHere(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type errors in %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: checking %s: %w", path, err)
	}
	p := &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// loaderImporter adapts the Loader as a types importer: module-internal
// imports load through the loader, everything else (the standard library)
// through the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if l.inModule(path) {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
