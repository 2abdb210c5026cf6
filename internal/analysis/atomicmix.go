package analysis

import (
	"go/ast"
)

// AtomicMix flags mixed access disciplines on one memory location: a struct
// field (or package-level variable) that some function in the module
// addresses through sync/atomic while another function loads or stores it
// plainly. The plain access races with the atomic one — the /metrics
// counters are the motivating case. The atomic side comes from the
// module-wide interprocedural summaries, so the two sides may live in
// different packages (or in a test file, when the loader includes tests).
// Typed atomics (atomic.Int64 et al.) need no rule: the type system already
// forbids plain access to them. Composite-literal field keys are
// initialization, not access, and are exempt.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "a field accessed via sync/atomic anywhere must be accessed atomically everywhere",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		spans := fileAtomicSpans(pass.Pkg, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.SelectorExpr:
				if inSpans(spans, int(t.Pos())) {
					return true
				}
				key := accessKey(pass.Pkg, t)
				if key != "" && pass.Facts.AtomicField(key) {
					pass.Reportf(t.Pos(),
						"%s is accessed with sync/atomic elsewhere; this plain access races with it — use atomic operations consistently",
						key)
				}
			case *ast.Ident:
				// Package-level variables accessed bare. Only uses count:
				// the declaration itself and composite-literal keys are not
				// accesses.
				if pass.Pkg.Info.Uses[t] == nil || inSpans(spans, int(t.Pos())) {
					return true
				}
				key := accessKey(pass.Pkg, t)
				if key != "" && pass.Facts.AtomicField(key) {
					pass.Reportf(t.Pos(),
						"%s is accessed with sync/atomic elsewhere; this plain access races with it — use atomic operations consistently",
						key)
				}
			}
			return true
		})
	}
}

// fileAtomicSpans records the spans of every sync/atomic call in the file so
// the &x.f inside atomic.AddInt64(&x.f, 1) is not itself a plain access.
func fileAtomicSpans(pkg *Package, file *ast.File) []span {
	var out []span
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
			if obj := pkg.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "sync/atomic" {
				out = append(out, span{int(call.Pos()), int(call.End())})
			}
		}
		return true
	})
	return out
}

// span is a half-open source range.
type span struct{ lo, hi int }

// inSpans reports whether pos falls inside any recorded span.
func inSpans(spans []span, pos int) bool {
	for _, s := range spans {
		if pos >= s.lo && pos < s.hi {
			return true
		}
	}
	return false
}
