package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoTestingQuick keeps every property test on internal/proptest:
// testing/quick draws from a time-seeded source, so a failure it finds
// cannot be replayed, while a proptest property is seeded from the test
// source and prints a shrunk replay token.
func TestNoTestingQuick(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "testing/quick" {
				t.Errorf("%s imports testing/quick; write the property with internal/proptest", fset.Position(imp.Pos()))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
