package analysis

// Interprocedural substrate. Every declared function gets a Summary — a
// fact record covering what the four cross-function analyzers (aliasret,
// ctxflow, atomicmix, undoscope) need to see across call boundaries: which
// results alias which inputs or hidden state, whether the body blocks on a
// literal ambient context, which struct fields are touched with sync/atomic,
// and the static intra-module call edges. Summaries are a pure function of one
// package's syntax and types; the cross-function propagation (transitive
// ambient blocking, call-graph reachability) is computed from the merged
// summaries once per run.

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Summary is the interprocedural fact record of one declared function or
// method. Slice-valued fields are sorted and deduplicated.
type Summary struct {
	// ID names the function: "pkgpath.Func" or "pkgpath.(Recv).Method".
	ID string

	// AmbientBlock reports that the body hands a literal context.Background()
	// or context.TODO() to a context-taking callee — the body blocks on work
	// that a caller-supplied context could have cancelled.
	AmbientBlock bool

	// AliasReturns maps a result index to the alias sources that result may
	// share memory with: "recv" (a receiver's unexported field), "var.<name>"
	// (an unexported package-level variable), "param.<i>", or
	// "call.<FuncID>.<k>" (result k of a callee, resolved one level deep by
	// aliasret). Fresh results are absent.
	AliasReturns map[int][]string

	// AtomicFields records struct fields (or package-level vars) touched via
	// sync/atomic calls, keyed "pkgpath.Type.field" / "var.pkgpath.name".
	AtomicFields []string

	// Calls lists static intra-module callees by FuncID, sorted and deduped.
	Calls []string
}

// Facts is the merged module-wide view over every package's summaries plus
// the derived cross-function closures.
type Facts struct {
	byID    map[string]*Summary
	atomic  map[string]bool // union of every Summary.AtomicFields
	ambient map[string]bool // transitive closure of AmbientBlock over Calls
}

// Lookup returns the summary for a FuncID, or nil.
func (f *Facts) Lookup(id string) *Summary {
	return f.byID[id]
}

// AtomicField reports whether any function in the module touches the given
// field key through sync/atomic.
func (f *Facts) AtomicField(key string) bool {
	return f.atomic[key]
}

// AmbientBlocker reports whether the function (or anything it transitively
// calls inside the module) blocks on a literal context.Background()/TODO().
func (f *Facts) AmbientBlocker(id string) bool {
	return f.ambient[id]
}

// Reachable returns the set of FuncIDs reachable from roots over the static
// call graph, roots included.
func (f *Facts) Reachable(roots []string) map[string]bool {
	seen := make(map[string]bool)
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		if s := f.Lookup(id); s != nil {
			queue = append(queue, s.Calls...)
		}
	}
	return seen
}

// BuildFacts summarizes every package (in package order) into the
// module-wide fact index and computes the derived closures.
func BuildFacts(pkgs []*Package) *Facts {
	f := &Facts{
		byID:    make(map[string]*Summary),
		atomic:  make(map[string]bool),
		ambient: make(map[string]bool),
	}
	for _, pkg := range pkgs {
		sums := PackageSummaries(pkg)
		for i := range sums {
			s := &sums[i]
			f.byID[s.ID] = s
			for _, key := range s.AtomicFields {
				f.atomic[key] = true
			}
			if s.AmbientBlock {
				f.ambient[s.ID] = true
			}
		}
	}
	// Transitive ambient blocking: a caller of a blocker is itself a blocker.
	// Iterate to a fixpoint; the graph is small and the lattice is boolean,
	// so this terminates after at most the call-graph depth.
	for changed := true; changed; {
		changed = false
		for id, s := range f.byID {
			if f.ambient[id] {
				continue
			}
			for _, callee := range s.Calls {
				if f.ambient[callee] {
					f.ambient[id] = true
					changed = true
					break
				}
			}
		}
	}
	return f
}

// FuncID names fn as "pkgpath.Func" or "pkgpath.(Recv).Method"; "" when the
// function has no package (builtins).
func FuncID(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		name := "?"
		if n, isNamed := t.(*types.Named); isNamed {
			name = n.Obj().Name()
		}
		return fn.Pkg().Path() + ".(" + name + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// baseName returns the bare function or method name of a FuncID.
func baseName(id string) string {
	if i := strings.LastIndex(id, "."); i >= 0 {
		return id[i+1:]
	}
	return id
}

// moduleRootOf returns the leading path segment of an import path — the
// coarse "same module" test used to keep stdlib callees out of summaries.
func moduleRootOf(path string) string {
	if i := strings.Index(path, "/"); i >= 0 {
		return path[:i]
	}
	return path
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isHTTPRequestPtr reports whether t is *net/http.Request — handlers hold
// their request context through it.
func isHTTPRequestPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// ctxParamIndex returns the index of the first context.Context parameter of
// sig, or -1.
func ctxParamIndex(sig *types.Signature) int {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// isAmbientCtxCall reports whether e is a literal context.Background() or
// context.TODO() call.
func isAmbientCtxCall(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "context" && (obj.Name() == "Background" || obj.Name() == "TODO")
}

// atomicOpField resolves a call to a sync/atomic function into the field (or
// package-level var) key its pointer argument addresses, or "" when the call
// is not a function-style atomic access. Typed atomics (atomic.Int64 fields)
// need no rule: the type system already forbids plain access.
func atomicOpField(pkg *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return ""
	}
	name := obj.Name()
	switch {
	case strings.HasPrefix(name, "Add"), strings.HasPrefix(name, "Load"),
		strings.HasPrefix(name, "Store"), strings.HasPrefix(name, "Swap"),
		strings.HasPrefix(name, "CompareAndSwap"):
	default:
		return ""
	}
	if len(call.Args) == 0 {
		return ""
	}
	unary, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok {
		return ""
	}
	return accessKey(pkg, unary.X)
}

// accessKey names a field selector or package-level var access:
// "pkgpath.Type.field" or "var.pkgpath.name"; "" for anything else.
func accessKey(pkg *Package, e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		selInfo, ok := pkg.Info.Selections[t]
		if !ok {
			return ""
		}
		field, ok := selInfo.Obj().(*types.Var)
		if !ok || !field.IsField() {
			return ""
		}
		recv := selInfo.Recv()
		if p, isPtr := recv.(*types.Pointer); isPtr {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
	case *ast.Ident:
		obj, ok := pkg.Info.ObjectOf(t).(*types.Var)
		if !ok || obj.IsField() || obj.Pkg() == nil {
			return ""
		}
		// Package-level only: the object's parent scope is the package scope.
		if obj.Parent() != obj.Pkg().Scope() {
			return ""
		}
		return "var." + obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

// PackageSummaries computes the summary of every declared function in pkg, in
// file and declaration order (stable: Loader sorts file names).
func PackageSummaries(pkg *Package) []Summary {
	var out []Summary
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "init" {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, summarize(pkg, fd, fn))
		}
	}
	return out
}

// summarize walks one function body (nested closures attributed to the
// declaration — a fact established by a closure holds for its host).
func summarize(pkg *Package, fd *ast.FuncDecl, fn *types.Func) Summary {
	sig := fn.Type().(*types.Signature)
	sum := Summary{ID: FuncID(fn)}
	root := moduleRootOf(pkg.Path)

	var recvObj types.Object
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recvObj = pkg.Info.ObjectOf(fd.Recv.List[0].Names[0])
	}
	params := paramIndex(pkg, fd)

	calls := map[string]bool{}
	atomicF := map[string]bool{}
	aliases := map[int]map[string]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if key := atomicOpField(pkg, t); key != "" {
				atomicF[key] = true
			}
			callee := calleeOf(pkg, t)
			if callee != nil && callee.Pkg() != nil {
				cp := callee.Pkg().Path()
				if cp == pkg.Path || strings.HasPrefix(cp, root+"/") {
					calls[FuncID(callee)] = true
				}
				if csig, ok := callee.Type().(*types.Signature); ok {
					if k := ctxParamIndex(csig); k >= 0 && k < len(t.Args) {
						if isAmbientCtxCall(pkg, t.Args[k]) {
							sum.AmbientBlock = true
						}
					}
				}
			}
		case *ast.ReturnStmt:
			noteAliasReturns(pkg, recvObj, params, sig, t, aliases)
		}
		return true
	})

	sum.Calls = sortedKeys(calls)
	sum.AtomicFields = sortedKeys(atomicF)
	if len(aliases) > 0 {
		sum.AliasReturns = make(map[int][]string, len(aliases))
		for idx, srcs := range aliases {
			sum.AliasReturns[idx] = sortedKeys(srcs)
		}
	}
	return sum
}

// paramIndex maps parameter objects of fd to their positional index.
func paramIndex(pkg *Package, fd *ast.FuncDecl) map[types.Object]int {
	out := make(map[types.Object]int)
	i := 0
	for _, fl := range fd.Type.Params.List {
		if len(fl.Names) == 0 {
			i++
			continue
		}
		for _, name := range fl.Names {
			if obj := pkg.Info.ObjectOf(name); obj != nil {
				out[obj] = i
			}
			i++
		}
	}
	return out
}

// calleeOf resolves the static callee of a call, or nil for builtins,
// conversions, and calls through values.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// mentionsObject reports whether the subtree references obj anywhere.
func mentionsObject(pkg *Package, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// noteAliasReturns classifies every slice- or map-typed returned expression.
func noteAliasReturns(pkg *Package, recvObj types.Object, params map[types.Object]int,
	sig *types.Signature, ret *ast.ReturnStmt, out map[int]map[string]bool) {
	if len(ret.Results) == 0 {
		return
	}
	record := func(idx int, srcs []string) {
		if len(srcs) == 0 {
			return
		}
		if out[idx] == nil {
			out[idx] = make(map[string]bool)
		}
		for _, s := range srcs {
			out[idx][s] = true
		}
	}
	if len(ret.Results) == 1 && sig.Results().Len() > 1 {
		// return f() forwarding a multi-result callee: every result aliases
		// the callee's corresponding result.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			if fn := calleeOf(pkg, call); fn != nil {
				for i := 0; i < sig.Results().Len(); i++ {
					if isSliceOrMap(sig.Results().At(i).Type()) {
						record(i, []string{"call." + FuncID(fn) + "." + strconv.Itoa(i)})
					}
				}
			}
		}
		return
	}
	for i, res := range ret.Results {
		t := pkg.Info.TypeOf(res)
		if t == nil || !isSliceOrMap(t) {
			continue
		}
		record(i, aliasSources(pkg, recvObj, params, res))
	}
}

// isSliceOrMap reports whether t's underlying type has slice/map aliasing
// semantics — the types whose return the copy contract covers.
func isSliceOrMap(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// aliasSources classifies where a returned reference value may share memory:
// nil means provably (for this analysis) fresh. One level of call
// indirection is recorded symbolically as "call.<id>.<k>" for the rule to
// resolve against the callee's summary.
func aliasSources(pkg *Package, recvObj types.Object, params map[types.Object]int, e ast.Expr) []string {
	e = ast.Unparen(e)
	switch t := e.(type) {
	case *ast.CallExpr:
		if fun, ok := ast.Unparen(t.Fun).(*ast.Ident); ok {
			if b, isB := pkg.Info.ObjectOf(fun).(*types.Builtin); isB {
				if b.Name() == "append" && len(t.Args) > 0 && !freshBase(pkg, t.Args[0]) {
					// append reuses the base array when capacity allows.
					return aliasSources(pkg, recvObj, params, t.Args[0])
				}
				return nil // make, or append onto a fresh base
			}
		}
		if tv, ok := pkg.Info.Types[t.Fun]; ok && tv.IsType() {
			// Conversions preserve aliasing between like reference kinds
			// (named slice <-> slice); string<->[]byte copies, but both sides
			// being slice/map is the conservative aliasing test.
			if len(t.Args) == 1 {
				if at := pkg.Info.TypeOf(t.Args[0]); at != nil && isSliceOrMap(at) {
					return aliasSources(pkg, recvObj, params, t.Args[0])
				}
			}
			return nil
		}
		if fn := calleeOf(pkg, t); fn != nil {
			return []string{"call." + FuncID(fn) + ".0"}
		}
		return nil
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
		id := rootIdent(e)
		if id == nil {
			return nil
		}
		obj := pkg.Info.ObjectOf(id)
		if obj == nil {
			return nil
		}
		switch {
		case recvObj != nil && obj == recvObj:
			if hasUnexportedSelector(pkg, e) {
				return []string{"recv"}
			}
		case obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope():
			if v, isVar := obj.(*types.Var); isVar && !v.Exported() {
				return []string{"var." + v.Name()}
			}
		default:
			if i, isParam := params[obj]; isParam {
				return []string{"param." + strconv.Itoa(i)}
			}
		}
		return nil
	}
	return nil
}

// freshBase reports whether an append base is provably fresh: nil, a
// composite literal, a make call, or the canonical zero-capacity reslice
// x[:0:0] that the aliasret autofix emits.
func freshBase(pkg *Package, e ast.Expr) bool {
	switch t := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.Ident:
		return t.Name == "nil"
	case *ast.CallExpr:
		if fun, ok := ast.Unparen(t.Fun).(*ast.Ident); ok {
			if b, isB := pkg.Info.ObjectOf(fun).(*types.Builtin); isB && b.Name() == "make" {
				return true
			}
		}
		// A conversion of nil or of a fresh value: []T(nil).
		if tv, ok := pkg.Info.Types[t.Fun]; ok && tv.IsType() && len(t.Args) == 1 {
			return freshBase(pkg, t.Args[0])
		}
		return false
	case *ast.SliceExpr:
		return t.Slice3 && isZeroIntLit(t.High) && isZeroIntLit(t.Max)
	}
	return false
}

// isZeroIntLit reports whether e is the literal 0.
func isZeroIntLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// hasUnexportedSelector reports whether the selector chain of e passes
// through at least one unexported field — the "unexported mutable state"
// half of the aliasret contract (exported fields are caller-reachable
// anyway).
func hasUnexportedSelector(pkg *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		if s, isSel := pkg.Info.Selections[sel]; isSel {
			if v, isVar := s.Obj().(*types.Var); isVar && v.IsField() && !v.Exported() {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortedKeys returns the set's keys sorted — the canonical slice encoding of
// every summary set, so facts never depend on map iteration order.
func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
