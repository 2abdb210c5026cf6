// Package analysis is a small stdlib-only static-analysis framework plus the
// repo-specific analyzers behind cmd/humnetlint. The analyzers enforce the
// determinism invariants that the reproduction's parallel engine depends on:
// bit-identical output for any worker count requires that no hot path leaks
// map iteration order, wall-clock time, ambient randomness, or racy shared
// accumulation (see DESIGN.md, "Determinism invariants").
//
// Findings can be suppressed at the offending line (or the line directly
// above it) with an explicit, reasoned comment:
//
//	//humnet:allow <rule>[,<rule>...] -- <reason>
//
// The reason is mandatory: an intentional order-insensitive loop gets
// documented instead of silently skipped. Malformed suppression comments are
// themselves reported under the rule name "suppression".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position. Fix, when present, is
// a machine-applicable remedy (see fix.go for the safety rules).
type Finding struct {
	File    string        `json:"file"`
	Line    int           `json:"line"`
	Col     int           `json:"col"`
	Rule    string        `json:"rule"`
	Message string        `json:"message"`
	Fix     *SuggestedFix `json:"fix,omitempty"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Analyzer is one named rule: a documented check over a type-checked package.
type Analyzer struct {
	Name string // rule name used in output and suppression comments
	Doc  string // one-line explanation of the rule
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one package. Facts holds the
// module-wide interprocedural summaries the driver built before the run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Facts    *Facts
	report   func(pos token.Pos, msg string, fix *SuggestedFix)
}

// Reportf records a finding at pos. Suppressed findings are counted but not
// returned.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(pos, fmt.Sprintf(format, args...), nil)
}

// ReportFixf records a finding carrying a suggested fix (which may be nil
// when no safe rewrite exists for this instance).
func (p *Pass) ReportFixf(pos token.Pos, fix *SuggestedFix, format string, args ...interface{}) {
	p.report(pos, fmt.Sprintf(format, args...), fix)
}

// All returns every analyzer in the suite, in stable order: the four
// AST-local rules from PR 3, then the four interprocedural rules built on
// the summary substrate.
func All() []*Analyzer {
	return []*Analyzer{RangeMap, WildRand, ErrDrop, ParAccum, AliasRet, CtxFlow, AtomicMix, UndoScope}
}

// Result is the outcome of running analyzers over packages.
type Result struct {
	Findings   []Finding `json:"findings"`
	Suppressed int       `json:"suppressed"`
}

// suppressRe matches a well-formed suppression comment. The comment must be
// a line comment starting exactly with "humnet:allow", name one or more
// known rules, and carry a reason after " -- ".
var suppressRe = regexp.MustCompile(`^//humnet:allow\s+([a-zA-Z0-9_,\s]+?)\s+--\s+(\S.*)$`)

// suppressKey locates a suppression: a rule allowed at a file line.
type suppressKey struct {
	file string
	line int
	rule string
}

// knownRules returns the set of rule names suppression comments may name.
func knownRules(analyzers []*Analyzer) map[string]bool {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return known
}

// collectSuppressions indexes every //humnet:allow comment in pkg and
// reports malformed ones (bad syntax, unknown rule, missing reason) as
// findings under the "suppression" rule.
func collectSuppressions(fset *token.FileSet, pkg *Package, known map[string]bool, bad func(Finding)) map[suppressKey]bool {
	idx := make(map[suppressKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, "//humnet:") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := suppressRe.FindStringSubmatch(text)
				if m == nil {
					bad(Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Rule:    "suppression",
						Message: "malformed suppression comment; want //humnet:allow <rule> -- <reason>",
					})
					continue
				}
				for _, rule := range strings.Split(m[1], ",") {
					rule = strings.TrimSpace(rule)
					if rule == "" {
						continue
					}
					if !known[rule] {
						bad(Finding{
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Rule:    "suppression",
							Message: fmt.Sprintf("suppression names unknown rule %q", rule),
						})
						continue
					}
					idx[suppressKey{pos.Filename, pos.Line, rule}] = true
				}
			}
		}
	}
	return idx
}

// Run builds the module-wide facts over pkgs, executes the analyzers over
// each package in order, applies suppression comments, and returns the
// surviving findings sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) Result {
	facts := BuildFacts(pkgs)
	known := knownRules(analyzers)
	var res Result
	for _, pkg := range pkgs {
		sup := collectSuppressions(fset, pkg, known, func(f Finding) {
			res.Findings = append(res.Findings, f)
		})
		for _, an := range analyzers {
			pass := &Pass{Analyzer: an, Fset: fset, Pkg: pkg, Facts: facts}
			pass.report = func(pos token.Pos, msg string, fix *SuggestedFix) {
				p := fset.Position(pos)
				if sup[suppressKey{p.Filename, p.Line, an.Name}] ||
					sup[suppressKey{p.Filename, p.Line - 1, an.Name}] {
					res.Suppressed++
					return
				}
				res.Findings = append(res.Findings, Finding{
					File: p.Filename, Line: p.Line, Col: p.Column,
					Rule: an.Name, Message: msg, Fix: fix,
				})
			}
			an.Run(pass)
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return res
}

// --- shared AST helpers used by several analyzers ---

// rootIdent strips parens, selectors, index expressions, and derefs down to
// the base identifier of an lvalue or receiver expression (nil when the
// expression does not bottom out at an identifier).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.ParenExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether the object bound to the root identifier of
// e was declared inside the source span [pos, end). A nil object (package
// names, struct fields without objects) counts as outside.
func (p *Pass) declaredWithin(e ast.Expr, pos, end token.Pos) bool {
	id := rootIdent(e)
	if id == nil {
		return false
	}
	obj := p.Pkg.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= pos && obj.Pos() < end
}

// calleeFunc resolves the called function or method of a call expression,
// or nil for builtins, conversions, and indirect calls through values.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// exprString renders an expression compactly for messages and for matching
// a sort call's argument against an append target.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
