package timr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoDeadUnexportedFuncs fails, by name, on every package-level
// unexported function under internal/ and cmd/ that is declared in a
// non-test file and referenced from no non-test file of its package: code
// only its own tests keep alive. Methods are skipped (they may exist to
// satisfy an interface). References are matched by identifier, so a
// same-named local hides a dead function; the gate errs towards silence.
func TestNoDeadUnexportedFuncs(t *testing.T) {
	dirs := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				dirs[filepath.Dir(path)] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			decls := map[*ast.Ident]bool{} // the declaring identifiers themselves
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if ok && fn.Recv == nil && !fn.Name.IsExported() && fn.Name.Name != "main" && fn.Name.Name != "init" {
						decls[fn.Name] = true
					}
				}
			}
			used := map[string]bool{}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && !decls[id] {
						used[id.Name] = true
					}
					return true
				})
			}
			for id := range decls {
				if !used[id.Name] {
					t.Errorf("%s: func %s is referenced from no non-test file", fset.Position(id.Pos()), id.Name)
				}
			}
		}
	}
}
