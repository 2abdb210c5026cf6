// Command humnetlint runs the repo's determinism linters (see
// internal/analysis) over every package in the module.
//
// Usage:
//
//	humnetlint [-C dir] [-json] [-rules rangemap,wildrand,...]
//	           [-list] [-fix] [-tests] [pkgdir ...]
//
// With no arguments it lints the whole module rooted at -C (default ".").
// Positional arguments restrict reporting to the given module-relative
// package directories (everything is still loaded, since analyzers need
// whole-program type information).
//
// The interprocedural summaries are built once per run, then each package is
// analyzed in turn. -tests loads in-package _test.go files so test-only
// accesses are visible to atomicmix.
// -fix applies the suggested fixes (aliasret copy-on-return, ctxflow context
// threading) in place; fixes are idempotent — a second run edits nothing.
//
// Exit status: 0 when clean, 1 when findings were reported (with -fix: when
// findings remain that no fix could repair), 2 on usage or load errors.
// -json emits {"findings":[{file,line,col,rule,message,fix?}...],
// "suppressed":N} on stdout for CI annotation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// emitf writes best-effort diagnostics. An unwritable stdout/stderr leaves
// no better channel to report to, so the error is explicitly dropped.
func emitf(w io.Writer, format string, args ...interface{}) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("humnetlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module root directory (holding go.mod)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	rules := fs.String("rules", "", "comma-separated rule subset (default: all)")
	list := fs.Bool("list", false, "print the rule names and docs, then exit")
	fix := fs.Bool("fix", false, "apply suggested fixes in place")
	tests := fs.Bool("tests", false, "include in-package _test.go files")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			emitf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *rules != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*rules, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				emitf(stderr, "humnetlint: unknown rule %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := analysis.NewLoader(*dir, *tests)
	if err != nil {
		emitf(stderr, "humnetlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.All()
	if err != nil {
		emitf(stderr, "humnetlint: %v\n", err)
		return 2
	}
	if only := packageFilter(loader, fs.Args(), stderr); only != nil {
		var kept []*analysis.Package
		for _, p := range pkgs {
			if only[p.Path] {
				kept = append(kept, p)
			}
		}
		pkgs = kept
	}

	res := analysis.Run(loader.Fset, pkgs, analyzers)

	if *fix {
		edits, files, ferr := analysis.ApplyFixes(res.Findings)
		if ferr != nil {
			emitf(stderr, "humnetlint: %v\n", ferr)
			return 2
		}
		emitf(stderr, "humnetlint: applied %d fix edit(s) in %d file(s)\n", edits, files)
		// Surviving findings are the unfixable ones; the fixed instances
		// vanish on the next (idempotence-checked) run.
		var remaining []analysis.Finding
		for _, f := range res.Findings {
			if f.Fix == nil {
				remaining = append(remaining, f)
			}
		}
		res.Findings = remaining
	}

	relativize(&res, loader.Root)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			emitf(stderr, "humnetlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range res.Findings {
			emitf(stdout, "%s\n", f.String())
		}
		if len(res.Findings) > 0 || res.Suppressed > 0 {
			emitf(stderr, "humnetlint: %d finding(s), %d suppressed\n",
				len(res.Findings), res.Suppressed)
		}
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

// packageFilter maps positional package-dir arguments ("./internal/bgpsim")
// to import paths; nil means no filtering.
func packageFilter(loader *analysis.Loader, args []string, stderr io.Writer) map[string]bool {
	if len(args) == 0 {
		return nil
	}
	only := make(map[string]bool)
	for _, a := range args {
		rel := filepath.ToSlash(filepath.Clean(a))
		rel = strings.TrimPrefix(rel, "./")
		if rel == "." || rel == "" {
			only[loader.ModPath] = true
			continue
		}
		only[loader.ModPath+"/"+rel] = true
	}
	return only
}

// relativize rewrites absolute finding paths relative to the module root so
// the output is stable across checkouts. Stripping one common root keeps the
// driver's sorted order.
func relativize(res *analysis.Result, root string) {
	for i := range res.Findings {
		if rel, err := filepath.Rel(root, res.Findings[i].File); err == nil {
			res.Findings[i].File = filepath.ToSlash(rel)
		}
	}
}
