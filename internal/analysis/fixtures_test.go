package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches a `// want "regex"` expectation marker inside a comment.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// moduleRoot walks up from the test's working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found above the test directory")
		}
		dir = parent
	}
}

// runFixture loads testdata/src/<rule> as a pseudo-internal package, runs
// the single analyzer over it through the full driver (so suppression
// comments are exercised too), and diffs findings against `// want`
// markers: every want must be matched by a finding on its line, and every
// finding must be expected.
func runFixture(t *testing.T, an *Analyzer) {
	t.Helper()
	runFixtureOpts(t, an, an.Name, LoadOpts{})
}

// runFixtureOpts is runFixture with the fixture directory and loader options
// explicit, for analyzers that need a fixture-scoped configuration
// (undoscope) or in-package test files (atomicmix with IncludeTests).
func runFixtureOpts(t *testing.T, an *Analyzer, fixture string, opts LoadOpts) {
	t.Helper()
	l, pkg := loadFixture(t, fixture, opts)
	res := Run(l.Fset, []*Package{pkg}, []*Analyzer{an})

	type key struct {
		file string
		line int
	}
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[key][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := l.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], &want{re: re})
				}
			}
		}
	}

	for _, f := range res.Findings {
		k := key{f.File, f.Line}
		ok := false
		for _, w := range wants[k] {
			if w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no finding matching %q", filepath.Base(k.file), k.line, w.re)
			}
		}
	}
	if res.Suppressed == 0 {
		t.Errorf("fixture exercised no suppression; suppress.go should trigger at least one")
	}
}

// loadFixture loads testdata/src/<fixture> as the pseudo-internal package
// repro/internal/<fixture>fix.
func loadFixture(t *testing.T, fixture string, opts LoadOpts) (*Loader, *Package) {
	t.Helper()
	root := moduleRoot(t)
	l, err := NewLoaderOpts(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", fixture)
	path := "repro/internal/" + fixture + "fix"
	l.AddDir(path, dir)
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, pkg
}

func TestRangeMapFixtures(t *testing.T) { runFixture(t, RangeMap) }
func TestWildRandFixtures(t *testing.T) { runFixture(t, WildRand) }
func TestErrDropFixtures(t *testing.T)  { runFixture(t, ErrDrop) }
func TestParAccumFixtures(t *testing.T) { runFixture(t, ParAccum) }
func TestAliasRetFixtures(t *testing.T) { runFixture(t, AliasRet) }
func TestCtxFlowFixtures(t *testing.T)  { runFixture(t, CtxFlow) }

// TestAtomicMixFixtures loads the fixture with in-package test files so the
// plain access in plain_test.go is visible (the -tests flag path).
func TestAtomicMixFixtures(t *testing.T) {
	runFixtureOpts(t, AtomicMix, AtomicMix.Name, LoadOpts{IncludeTests: true})
}

// TestUndoScopeFixtures scopes the rule to the fixture's miniature state
// machine instead of the production bgpsim configuration.
func TestUndoScopeFixtures(t *testing.T) {
	runFixtureOpts(t, NewUndoScope(UndoScopeConfig{
		PkgSuffix:  "/internal/undoscopefix",
		StateTypes: []string{"engine"},
		Roots:      []string{"Apply", "Revert"},
	}), "undoscope", LoadOpts{})
}

// TestUndoScopeUndeclaredConfig misspells a state type and a root: each must
// surface as a finding instead of silently disarming the rule.
func TestUndoScopeUndeclaredConfig(t *testing.T) {
	l, pkg := loadFixture(t, "undoscope", LoadOpts{})
	res := Run(l.Fset, []*Package{pkg}, []*Analyzer{NewUndoScope(UndoScopeConfig{
		PkgSuffix:  "/internal/undoscopefix",
		StateTypes: []string{"engnie"},
		Roots:      []string{"Apply", "Revrt"},
	})})
	want := []string{ // findings at one position sort by message
		"undoscope root Revrt is not declared in repro/internal/undoscopefix",
		"undoscope state type engnie is not declared in repro/internal/undoscopefix",
	}
	if len(res.Findings) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(res.Findings), len(want), res.Findings)
	}
	for i, w := range want {
		if !strings.HasPrefix(res.Findings[i].Message, w) {
			t.Errorf("finding %d = %q, want prefix %q", i, res.Findings[i].Message, w)
		}
	}
}
