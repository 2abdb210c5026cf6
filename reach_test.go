package repro

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// reachAllowed names the internal/ declarations that no binary, example,
// benchmark harness or registered scenario reaches but that tests of
// reached code use as an oracle, fixture or measuring tool. Keys are
// "<import path>.<Name>", "<import path>.<Type>.<Method>", or an import
// path for a whole test-support package. What an allowed declaration uses
// is allowed with it.
var reachAllowed = map[string]string{
	"repro/internal/proptest": "test-support package: the property-test driver and generators",
	"repro/internal/clitest":  "test-support package: the CLI test harness",

	"repro/internal/analysis.Loader.AddDir":                "the analyzer fixture tests load testdata/src through it",
	"repro/internal/bgpsim.Converged.StateFingerprint":     "Apply/Revert state oracle",
	"repro/internal/bgpsim.Converged.Topology":             "feeds the cold-convergence oracle in the delta tests",
	"repro/internal/bgpsim.FormatTopology":                 "round-trip pair of the fuzzed ParseTopology",
	"repro/internal/bgpsim.ParseTopology":                  "fuzzed base-topology grammar, the tests' topology fixtures",
	"repro/internal/bgpsim.Patch.Delta":                    "checks which delta a patch undoes",
	"repro/internal/bgpsim.Route":                          "the route-table oracle's result type",
	"repro/internal/bgpsim.RoutingTables.Prefixes":         "route-table oracle",
	"repro/internal/bgpsim.RoutingTables.Reachable":        "route-table oracle",
	"repro/internal/bgpsim.RoutingTables.Route":            "route-table oracle",
	"repro/internal/bgpsim.Topology.IsLeaker":              "topology-state oracle",
	"repro/internal/bgpsim.Topology.ValleyFree":            "Gao-Rexford path oracle",
	"repro/internal/cn.CPR.Balances":                       "the CPR scheduler tests read credit balances through it",
	"repro/internal/cn.ChurnSim.DemandScale":               "the churn tests read the demand surge through it",
	"repro/internal/ethno.Schedule.TotalDays":              "the scheduler tests check the budget through it",
	"repro/internal/graph.BarabasiAlbert":                  "graph fixture generator",
	"repro/internal/graph.ErdosRenyi":                      "graph fixture generator",
	"repro/internal/graph.Graph.AddNode":                   "graph fixture builder",
	"repro/internal/graph.Graph.HasEdge":                   "graph-structure oracle",
	"repro/internal/qualcode.Codebook.Depth":               "codebook-hierarchy oracle",
	"repro/internal/qualcode.Codebook.Roots":               "codebook-hierarchy oracle",
	"repro/internal/rng.Rand.Pareto":                       "heavy-tailed demand fixtures",
	"repro/internal/stats.Min":                             "the Quantile property and fuzz bounds",
	"repro/internal/stats.Spearman":                        "rank-correlation measuring tool",
	"repro/internal/textproc.Corpus.Len":                   "sizes the TFIDF benchmark",
	"repro/internal/textproc.Corpus.TFIDF":                 "text-similarity measuring tool",
	"repro/internal/textproc.Cosine":                       "text-similarity measuring tool",
	"repro/internal/timeline.FormatDoc":                    "round-trip pair of the fuzzed ParseStream",
	"repro/internal/timeline.FormatStream":                 "round-trip pair of the fuzzed ParseStream",
	"repro/internal/timeline.GenPrefixMigration":           "replay fixture generator",
	"repro/internal/timeline.IXPMachine.State":             "feeds the cold-convergence oracle in the replay tests",
	"repro/internal/timeline.ParseStream":                  "fuzzed event-stream grammar",
	"repro/internal/timeline.StakeholderMachine.Escalated": "the composition tests check escalation through it",
}

// TestEveryInternalDeclIsReached fails when a declaration under internal/
// is reached from no root: every declaration outside internal/ (cmd/,
// examples/, bench/), every package init function and every package-level
// var initializer (scenario registration). internal/ is importable only
// from inside this module, so a declaration no root reaches is code that
// only its own tests run. The walk is conservative: a method of a reached
// type counts as reached when any interface in the program has a method of
// that name, so dynamic dispatch can never make reached code look dead.
func TestEveryInternalDeclIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the module-wide type-check in -short mode")
	}
	// The module walk also registers bench/: it is a module of its own, but
	// its path (repro/bench) lets it import internal/.
	l, err := analysis.NewLoader(".", false)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.All()
	if err != nil {
		t.Fatal(err)
	}
	internal := l.ModPath + "/internal/"
	isInternal := func(obj types.Object) bool {
		return strings.HasPrefix(obj.Pkg().Path()+"/", internal)
	}

	// decls maps each package-level object of the module, methods included,
	// to the syntax that declares it.
	decls := map[types.Object]ast.Node{}
	var roots []types.Object
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.Info.Defs[d.Name]
					decls[obj] = d
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							obj := p.Info.Defs[n] // blank identifiers too
							decls[obj] = s
							if _, isVar := obj.(*types.Var); isVar {
								roots = append(roots, obj)
							}
						}
					}
				}
			}
		}
	}
	for obj := range decls {
		if !isInternal(obj) {
			roots = append(roots, obj)
		}
	}

	ifaceMethods := interfaceMethodNames(pkgs)
	infos := map[string]*types.Info{}
	for _, p := range pkgs {
		infos[p.Path] = p.Info
	}
	reached := map[types.Object]bool{}
	var work []types.Object
	reach := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if _, ok := decls[obj]; !ok || reached[obj] {
			return
		}
		reached[obj] = true
		work = append(work, obj)
	}
	walk := func(from []types.Object) {
		for _, obj := range from {
			reach(obj)
		}
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			info := infos[obj.Pkg().Path()]
			ast.Inspect(decls[obj], func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if u := info.Uses[id]; u != nil {
						reach(u)
					}
				}
				return true
			})
			if tn, ok := obj.(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); ifaceMethods[m.Name()] {
							reach(m)
						}
					}
				}
			}
		}
	}
	walk(roots)

	// An allowlist entry must name a declaration that exists and that no
	// root reaches; then it and everything it uses count as reached.
	var allowed []types.Object
	found := map[string]bool{}
	for obj := range decls {
		for _, key := range []string{declKey(obj), obj.Pkg().Path()} {
			if _, ok := reachAllowed[key]; ok && isInternal(obj) {
				found[key] = true
				if !reached[obj] {
					allowed = append(allowed, obj)
				} else if key != obj.Pkg().Path() {
					t.Errorf("allowlisted but reached: %s", key)
				}
			}
		}
	}
	for key := range reachAllowed {
		if !found[key] {
			t.Errorf("allowlisted but not declared: %s", key)
		}
	}
	walk(allowed)

	var dead []string
	for obj := range decls {
		if !reached[obj] && isInternal(obj) {
			dead = append(dead, declKey(obj)+" ("+l.Fset.Position(obj.Pos()).String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("reached only from tests: %s", d)
	}
}

// declKey names obj as "<import path>.<Name>", or "<import path>.<Type>.<Method>"
// for a method.
func declKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interfaceMethodNames collects the method names of every interface type
// the module's code mentions and of every interface its dependencies
// declare at package level, plus the anonymous interfaces package errors
// asserts (Unwrap, Is, As). A method with one of these names may be called
// through an interface, so the reachability walk cannot rule it out.
func interfaceMethodNames(pkgs []*analysis.Package) map[string]bool {
	names := map[string]bool{"Unwrap": true, "Is": true, "As": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		walk(p.Types)
	}
	return names
}
