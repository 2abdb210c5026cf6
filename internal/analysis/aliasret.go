package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// AliasRet enforces the copy contract documented on RoutingTables.Route:
// an exported function or method must not return a slice or map that aliases
// unexported mutable state (a receiver's unexported field or an unexported
// package-level variable), because the caller can then mutate internals —
// or observe later internal mutation — without any visible write. The check
// follows one level of helper calls through the interprocedural summaries:
// an exported wrapper returning a private helper's alias is flagged at the
// wrapper. Returns that alias the caller's own parameters are fine (the
// memory was theirs already), as are provably fresh values (composite
// literals, make, append onto a fresh base).
//
// Slice findings whose returned expression is side-effect-free carry a
// suggested fix: return append(E[:0:0], E...) — a copy into a fresh backing
// array that the analyzer itself recognises as fresh, so the fix is
// idempotent by construction.
var AliasRet = &Analyzer{
	Name: "aliasret",
	Doc:  "exported functions must not return aliases of unexported mutable state; return a copy",
	Run:  runAliasRet,
}

func runAliasRet(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			checkAliasReturns(pass, fd, fn)
		}
	}
}

func checkAliasReturns(pass *Pass, fd *ast.FuncDecl, fn *types.Func) {
	var recvObj types.Object
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recvObj = pass.Pkg.Info.ObjectOf(fd.Recv.List[0].Names[0])
	}
	params := paramIndex(pass.Pkg, fd)
	// Only the declaration's own returns: a nested closure's return value is
	// not the exported function's return value.
	walkOwnReturns(fd.Body, func(ret *ast.ReturnStmt) {
		for _, res := range ret.Results {
			t := pass.Pkg.Info.TypeOf(res)
			if t == nil || !isSliceOrMap(t) {
				continue
			}
			for _, src := range aliasSources(pass.Pkg, recvObj, params, res) {
				reportAliasSource(pass, fd, res, t, src)
			}
		}
	})
}

// walkOwnReturns visits the return statements of body, skipping nested
// function literals.
func walkOwnReturns(body *ast.BlockStmt, fn func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			fn(t)
		}
		return true
	})
}

func reportAliasSource(pass *Pass, fd *ast.FuncDecl, res ast.Expr, t types.Type, src string) {
	switch {
	case src == "recv":
		pass.reportAliasWithFix(res, t,
			"exported %s returns %s, an alias of unexported receiver state; callers can mutate internals — return a copy",
			fd.Name.Name, exprString(res))
	case strings.HasPrefix(src, "var."):
		pass.reportAliasWithFix(res, t,
			"exported %s returns %s, an alias of unexported package state; callers can mutate internals — return a copy",
			fd.Name.Name, exprString(res))
	case strings.HasPrefix(src, "call."):
		// One level of helper indirection: resolve the callee's own summary.
		rest := strings.TrimPrefix(src, "call.")
		dot := strings.LastIndex(rest, ".")
		if dot < 0 {
			return
		}
		calleeID := rest[:dot]
		resIdx, err := strconv.Atoi(rest[dot+1:])
		sum := pass.Facts.Lookup(calleeID)
		if err != nil || sum == nil {
			return
		}
		for _, inner := range sum.AliasReturns[resIdx] {
			if inner == "recv" || strings.HasPrefix(inner, "var.") {
				pass.Reportf(res.Pos(),
					"exported %s returns %s, which aliases unexported mutable state inside %s; copy in one of the two layers",
					fd.Name.Name, exprString(res), baseName(calleeID))
				return
			}
		}
	}
	// param.* sources are the caller's own memory: not hidden state.
}

// reportAliasWithFix reports a direct aliasing return, attaching the
// copy-on-return fix when it is safe: the result is a slice (append works)
// and the expression is side-effect-free (it appears twice in the rewrite).
func (p *Pass) reportAliasWithFix(res ast.Expr, t types.Type, format string, args ...interface{}) {
	var fix *SuggestedFix
	if _, isSlice := t.Underlying().(*types.Slice); isSlice && sideEffectFree(res) {
		src := exprString(res)
		fix = &SuggestedFix{
			Message: "copy on return: append(" + src + "[:0:0], " + src + "...)",
			Edits: []TextEdit{{
				Start: p.offsetOf(res.Pos()),
				End:   p.offsetOf(res.End()),
				New:   "append(" + src + "[:0:0], " + src + "...)",
			}},
		}
	}
	p.ReportFixf(res.Pos(), fix, format, args...)
}

// offsetOf maps a token position to its byte offset in its file.
func (p *Pass) offsetOf(pos token.Pos) int {
	return p.Fset.Position(pos).Offset
}

// sideEffectFree reports whether e can be duplicated safely: identifier,
// selector, deref, and index chains over other side-effect-free expressions.
func sideEffectFree(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return sideEffectFree(t.X)
	case *ast.SelectorExpr:
		return sideEffectFree(t.X)
	case *ast.StarExpr:
		return sideEffectFree(t.X)
	case *ast.IndexExpr:
		return sideEffectFree(t.X) && sideEffectFree(t.Index)
	}
	return false
}
