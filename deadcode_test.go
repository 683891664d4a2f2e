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

// TestNoDeadUnexportedFuncs fails, by name, on every unexported function
// under internal/ and cmd/ that is declared in a non-test file and that no
// non-test file of its package names: code only its own tests keep alive.
// A package-level function counts as named by any identifier; a method only
// by a selector (x.m — a call, a method value or expression), as that is the
// only way to reach it, an interface's dispatch included. A marker — an
// empty method that only puts its type in a closed interface of the package
// (tsql's isQuery, isExpr) — is never called, and stays. Matching is by
// name, so a same-named identifier or method elsewhere in the package hides
// a dead one; the gate errs towards silence.
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
			decls := map[*ast.Ident]bool{} // the declaring identifiers themselves; true for a method
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if ok && !fn.Name.IsExported() && fn.Name.Name != "main" && fn.Name.Name != "init" {
						decls[fn.Name] = fn.Recv != nil
					}
				}
			}
			used, selected, inIface := map[string]bool{}, map[string]bool{}, map[string]bool{}
			empty := map[*ast.Ident]bool{}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						selected[n.Sel.Name] = true
					case *ast.InterfaceType:
						for _, m := range n.Methods.List {
							for _, name := range m.Names {
								inIface[name.Name] = true
							}
						}
					case *ast.FuncDecl:
						empty[n.Name] = n.Recv != nil && n.Body != nil && len(n.Body.List) == 0
					case *ast.Ident:
						if _, decl := decls[n]; !decl {
							used[n.Name] = true
						}
					}
					return true
				})
			}
			for id, method := range decls {
				switch {
				case method && !selected[id.Name] && !(empty[id] && inIface[id.Name]):
					t.Errorf("%s: method %s is called from no non-test file", fset.Position(id.Pos()), id.Name)
				case !method && !used[id.Name]:
					t.Errorf("%s: func %s is referenced from no non-test file", fset.Position(id.Pos()), id.Name)
				}
			}
		}
	}
}
