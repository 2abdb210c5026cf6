package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// defaultConfigAllowed names the exported Default*Config functions a
// scenario package may keep, keyed "<dir>.<Name>", with the reason.
var defaultConfigAllowed = map[string]string{
	"internal/biblio.DefaultGenConfig": "the venue landscape the corpus generator needs; bench/ builds its corpora from it",
}

// TestNoScenarioDefaultConfigs keeps a scenario's defaults in one place,
// its experiment.Schema: a package that registers scenarios may not also
// export a Default*Config constructor, which is a second copy of those
// defaults that nothing checks against the schema. Tests that want the
// report's configuration build it from the registered schema defaults
// through the scenario's own params-to-config mapping.
func TestNoScenarioDefaultConfigs(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == ".git" || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return err
		}
		registers := false
		var constructors []*ast.FuncDecl
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Register" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "experiment" {
						registers = true
					}
				}
				return true
			})
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil {
					continue
				}
				if name := fn.Name.Name; ast.IsExported(name) && strings.HasPrefix(name, "Default") && strings.HasSuffix(name, "Config") {
					constructors = append(constructors, fn)
				}
			}
		}
		if !registers {
			return nil
		}
		for _, fn := range constructors {
			if _, ok := defaultConfigAllowed[filepath.ToSlash(dir)+"."+fn.Name.Name]; !ok {
				t.Errorf("%s: %s copies scenario defaults outside the schema; build the config from the registered params", fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
