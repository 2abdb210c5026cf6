package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis. By
// default only non-test files are loaded: the determinism invariants guard
// production code paths, and test-only helpers are free to trade hermeticity
// for convenience. NewLoader's includeTests pulls in-package _test.go files
// into the same unit (external foo_test packages are still dropped — they
// are a different package and would collide), so rules like atomicmix can
// see test-only plain reads of production state.
type Package struct {
	Path      string   // import path, e.g. "repro/internal/bgpsim"
	Dir       string   // absolute directory the files were read from
	Filenames []string // absolute source file paths, sorted
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Loader discovers, parses, and type-checks every package of a Go module
// using only the standard library: go/parser for syntax, go/types for
// semantics, and the stdlib "source" importer for dependencies outside the
// module. There is no golang.org/x/tools dependency, so the linter builds
// and runs on an offline toolchain.
type Loader struct {
	Fset    *token.FileSet
	Root    string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	dirs     map[string]string // import path -> absolute dir
	pkgs     map[string]*Package
	checking map[string]bool
	std      types.Importer
	tests    bool // also load in-package _test.go files
}

// NewLoader scans the module rooted at root (the directory containing
// go.mod) and registers every directory holding non-test Go files. Packages
// are type-checked lazily by Load/All. Directories named testdata or vendor
// and dot/underscore directories are skipped, so analyzer fixtures do not
// count as module packages. includeTests loads in-package _test.go files
// alongside production files (external *_test packages are skipped); the
// linters guard production paths, so callers normally leave it off.
func NewLoader(root string, includeTests bool) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:     fset,
		Root:     abs,
		ModPath:  modPath,
		dirs:     make(map[string]string),
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
		std:      importer.ForCompiler(fset, "source", nil),
		tests:    includeTests,
	}
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		// Discovery keys off non-test files: a directory holding only tests
		// is not a production package even when test files are loaded.
		if len(goFiles(path, false)) == 0 {
			return nil
		}
		rel, err := filepath.Rel(abs, path)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		l.dirs[imp] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// goFiles returns the sorted .go file paths in dir; _test.go files only when
// includeTests is set.
func goFiles(dir string, includeTests bool) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out
}

// AddDir registers an extra directory under the given import path, outside
// the module walk. The fixture test harness uses it to type-check
// testdata/src packages as if they lived inside the module.
func (l *Loader) AddDir(importPath, dir string) {
	l.dirs[importPath] = dir
}

// Paths returns the sorted import paths of every registered package.
func (l *Loader) Paths() []string {
	out := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Load parses and type-checks the package with the given import path
// (memoized). Module-internal imports resolve through the loader itself;
// everything else falls back to the stdlib source importer.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	dir, ok := l.dirs[importPath]
	if !ok {
		return nil, fmt.Errorf("analysis: package %s is not part of module %s", importPath, l.ModPath)
	}
	if l.checking[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.checking[importPath] = true
	defer delete(l.checking, importPath)

	var files []*ast.File
	var filenames []string
	for _, fname := range goFiles(dir, l.tests) {
		f, err := parser.ParseFile(l.Fset, fname, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		filenames = append(filenames, fname)
	}
	if l.tests {
		files, filenames = dropExternalTestFiles(files, filenames)
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
	conf := types.Config{Importer: l, FakeImportC: true}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	p := &Package{Path: importPath, Dir: dir, Filenames: filenames, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// dropExternalTestFiles removes files belonging to an external *_test
// package: they declare a different package name and cannot be type-checked
// in the same unit. The production package name is taken from the first
// file whose name does not end in "_test"; when only external test files
// exist the directory keeps them (it was only discoverable via AddDir).
func dropExternalTestFiles(files []*ast.File, filenames []string) ([]*ast.File, []string) {
	prodName := ""
	for _, f := range files {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			prodName = f.Name.Name
			break
		}
	}
	if prodName == "" {
		return files, filenames
	}
	var outF []*ast.File
	var outN []string
	for i, f := range files {
		if f.Name.Name != prodName {
			continue
		}
		outF = append(outF, f)
		outN = append(outN, filenames[i])
	}
	return outF, outN
}

// Import implements types.Importer so that a Loader can serve as the
// importer of its own type-checking passes.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirs[path]; ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// All loads every registered package in sorted import-path order.
func (l *Loader) All() ([]*Package, error) {
	var out []*Package
	for _, p := range l.Paths() {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}
