package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// UndoScope guards the invariant the incremental engine's sparse undo log
// silently depends on: every mutation of the compiled routing state
// (engine, entry, RoutingTables, pathNode in internal/bgpsim) must happen
// on the recording path — reachable, over the static call graph in the
// interprocedural summaries, from the ConvergeCtx/ConvergeStateCtx/Apply/
// applyScoped/Revert roots. A write reached any other way bypasses undo recording, and the
// next Revert restores a world that never existed. Writes to bare local
// variables are rebinds, not shared-state mutation, and are out of scope;
// the rule looks at selector/index/deref stores, IncDec, and the copy/delete
// builtins whose target's type chain includes a protected named type. A
// configured state type or root the package does not declare is a finding
// too: after a rename the rule would otherwise match nothing and pass.
//
// The rule is configuration-driven (NewUndoScope) so fixture suites can
// exercise it against a miniature state machine without colliding with the
// real bgpsim package. The production instance carries one scope per
// protected package: bgpsim's undo log, and the composition layer's wiring
// and replay-once flag (Composition), which the same argument protects — a
// Composition mutated outside Compose/ReplayCtx replays a cascade history
// that never happened.
var UndoScope = NewUndoScope(
	UndoScopeConfig{
		PkgSuffix:  "/internal/bgpsim",
		StateTypes: []string{"engine", "entry", "RoutingTables", "pathNode"},
		Roots: []string{
			"ConvergeCtx", "ConvergeStateCtx",
			"Apply", "applyScoped", "Revert",
		},
	},
	UndoScopeConfig{
		PkgSuffix:  "/internal/timeline",
		StateTypes: []string{"Composition"},
		Roots:      []string{"Compose", "ReplayCtx"},
	},
)

// UndoScopeConfig scopes the rule to one package, its protected state
// types, and the entry points of the recording path (bare declaration
// names; both free functions and methods match).
type UndoScopeConfig struct {
	PkgSuffix  string   // rule applies to packages with this import-path suffix
	StateTypes []string // named types (declared in that package) whose values are protected
	Roots      []string // functions the recording path starts from
}

// NewUndoScope builds an undoscope analyzer for the given configurations —
// one scope per protected package; each pass runs the scope (if any) whose
// package suffix matches. The production instance is UndoScope; tests build
// fixture-scoped ones.
func NewUndoScope(cfgs ...UndoScopeConfig) *Analyzer {
	return &Analyzer{
		Name: "undoscope",
		Doc:  "engine state writes must be reachable from the undo-recording path (Apply/Revert)",
		Run: func(pass *Pass) {
			for _, cfg := range cfgs {
				runUndoScope(pass, cfg)
			}
		},
	}
}

func runUndoScope(pass *Pass, cfg UndoScopeConfig) {
	if !strings.HasSuffix(pass.Pkg.Path, cfg.PkgSuffix) {
		return
	}
	stateSet := make(map[string]bool, len(cfg.StateTypes))
	for _, t := range cfg.StateTypes {
		stateSet[pass.Pkg.Path+"."+t] = true
	}
	rootNames := make(map[string]bool, len(cfg.Roots))
	for _, r := range cfg.Roots {
		rootNames[r] = true
	}

	var roots []string
	declared := make(map[string]bool, len(cfg.Roots))
	decls := packageFuncDecls(pass.Pkg)
	for _, d := range decls {
		if rootNames[d.fd.Name.Name] {
			roots = append(roots, FuncID(d.fn))
			declared[d.fd.Name.Name] = true
		}
	}
	sort.Strings(roots)
	reportUndeclared(pass, cfg, declared)
	reach := pass.Facts.Reachable(roots)

	for _, d := range decls {
		if reach[FuncID(d.fn)] {
			continue
		}
		reportStateWrites(pass, d.fd, stateSet)
	}
}

// reportUndeclared flags every configured state type or root the package
// does not declare. A rename would otherwise disarm the rule silently: an
// unknown state type protects nothing, and an unknown root drops its whole
// call tree from the recording path.
func reportUndeclared(pass *Pass, cfg UndoScopeConfig, declaredRoots map[string]bool) {
	if len(pass.Pkg.Files) == 0 {
		return
	}
	pos := pass.Pkg.Files[0].Package
	for _, t := range cfg.StateTypes {
		if _, ok := pass.Pkg.Types.Scope().Lookup(t).(*types.TypeName); !ok {
			pass.Reportf(pos, "undoscope state type %s is not declared in %s; update the rule's configuration", t, pass.Pkg.Path)
		}
	}
	for _, r := range cfg.Roots {
		if !declaredRoots[r] {
			pass.Reportf(pos, "undoscope root %s is not declared in %s; update the rule's configuration", r, pass.Pkg.Path)
		}
	}
}

type funcDecl struct {
	fd *ast.FuncDecl
	fn *types.Func
}

// packageFuncDecls lists every declared function with a body, in file order.
func packageFuncDecls(pkg *Package) []funcDecl {
	var out []funcDecl
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, isFn := pkg.Info.Defs[fd.Name].(*types.Func); isFn {
				out = append(out, funcDecl{fd, fn})
			}
		}
	}
	return out
}

// reportStateWrites flags every protected-state write inside fd.
func reportStateWrites(pass *Pass, fd *ast.FuncDecl, stateSet map[string]bool) {
	report := func(target ast.Expr) {
		pass.Reportf(target.Pos(),
			"write to %s mutates %s state outside the undo-recorded path; route it through Apply/Revert or extend the roots",
			exprString(target), stateTypeOf(pass, target, stateSet))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range t.Lhs {
				if isProtectedWrite(pass, lhs, stateSet) {
					report(lhs)
				}
			}
		case *ast.IncDecStmt:
			if isProtectedWrite(pass, t.X, stateSet) {
				report(t.X)
			}
		case *ast.CallExpr:
			if fun, ok := ast.Unparen(t.Fun).(*ast.Ident); ok && len(t.Args) > 0 {
				if b, isB := pass.Pkg.Info.ObjectOf(fun).(*types.Builtin); isB &&
					(b.Name() == "copy" || b.Name() == "delete") {
					if isProtectedWrite(pass, t.Args[0], stateSet) {
						report(t.Args[0])
					}
				}
			}
		}
		return true
	})
}

// isProtectedWrite reports whether the write target reaches into a protected
// named type. Bare identifiers are local/parameter rebinds and never count;
// anything deeper (selector, index, deref) counts when some subexpression's
// type — pointers dereferenced — is protected.
func isProtectedWrite(pass *Pass, target ast.Expr, stateSet map[string]bool) bool {
	if _, bare := ast.Unparen(target).(*ast.Ident); bare {
		return false
	}
	return stateTypeOf(pass, target, stateSet) != ""
}

// stateTypeOf returns the name of the first protected named type found in
// the target's subexpressions, or "".
func stateTypeOf(pass *Pass, target ast.Expr, stateSet map[string]bool) string {
	found := ""
	ast.Inspect(target, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		ex, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		t := pass.Pkg.Info.TypeOf(ex)
		if t == nil {
			return true
		}
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			if stateSet[key] {
				found = named.Obj().Name()
			}
		}
		return true
	})
	return found
}
