package nvm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoFenceOutsideNVM: every protocol step outside this package closes
// its own write-backs with Persist or PersistRanges, so no non-test file
// of the module calls Fence directly. internal/pcj keeps its calls: it
// models PCJ's own persist calls. Nested modules (benchmark/) are not
// this module and are not walked.
func TestNoFenceOutsideNVM(t *testing.T) {
	root := filepath.Join("..", "..")
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(mod), "module espresso\n") {
		t.Fatalf("%s is not the module root: %v", root, err)
	}
	exempt := map[string]bool{
		filepath.Join("internal", "nvm"): true,
		filepath.Join("internal", "pcj"): true,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			if exempt[rel] || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Fence" && len(call.Args) == 0 {
					t.Errorf("%s: a bare Fence call; close the step's flushes with Persist or PersistRanges", fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
