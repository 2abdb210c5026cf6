package analysis

import (
	"path/filepath"
	"testing"
)

// fixtureBasenames lists the base names of the files the loader picked up.
func fixtureBasenames(t *testing.T, includeTests bool) map[string]bool {
	t.Helper()
	_, pkg := loadFixture(t, "atomicmix", includeTests)
	out := make(map[string]bool, len(pkg.Filenames))
	for _, f := range pkg.Filenames {
		out[filepath.Base(f)] = true
	}
	return out
}

func TestLoaderExcludesTestFilesByDefault(t *testing.T) {
	names := fixtureBasenames(t, false)
	if names["plain_test.go"] {
		t.Error("default load picked up plain_test.go")
	}
	for _, want := range []string{"hit.go", "miss.go", "suppress.go"} {
		if !names[want] {
			t.Errorf("default load missing %s (got %v)", want, names)
		}
	}
}

func TestLoaderIncludeTestsAddsInPackageTestFiles(t *testing.T) {
	names := fixtureBasenames(t, true)
	if !names["plain_test.go"] {
		t.Errorf("test-file load missing plain_test.go (got %v)", names)
	}
}

// TestLoaderIncludeTestsModuleWide loads the real module with test files and
// checks the analysis package itself gained its _test.go files — the
// whole-module path the humnetlint -tests flag takes.
func TestLoaderIncludeTestsModuleWide(t *testing.T) {
	root := moduleRoot(t)
	l, err := NewLoader(root, true)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("repro/internal/parallel")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range pkg.Filenames {
		if filepath.Base(f) == "parallel_test.go" {
			found = true
		}
	}
	if !found {
		t.Errorf("test-file module load did not pick up parallel_test.go: %v", pkg.Filenames)
	}
}
