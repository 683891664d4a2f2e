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

// deadExportedAllow holds the exported names the gate keeps although no
// non-test file names them: test seams that reach a state no public path
// reaches. Each maps to why it stays.
var deadExportedAllow = map[string]string{
	"leakcheck.Goroutines":      "lists live goroutines so a test can assert a run leaked none",
	"dur.NewFaultFS":            "injects write, sync and rename faults that no real file system produces on demand",
	"dur.(*FaultFS).Injected":   "reports how many faults fired, so a fault test knows it exercised one",
	"serve.(*Server).RunKilled": "stops a server mid-stream without a final commit, the crash a restart test recovers from",
}

// TestNoDeadExportedNames fails, by name, on every exported func, method,
// type, var and const declared in a non-test file under internal/ that no
// non-test .go file of the module names, other than by its own
// declaration. Matching is by name, as in TestNoDeadUnexportedFuncs, so the
// gate errs towards silence: an interface method, a struct field or any
// other identifier of the same name keeps a declaration live. A facade
// name of timr.go is live only when examples/ or cmd/ selects it as timr.X.
// deadExportedAllow lists the few exceptions, each with its reason.
func TestNoDeadExportedNames(t *testing.T) {
	type decl struct {
		name, qual string // qual: pkg.Name or pkg.(*T).Name
		pos        token.Position
	}
	var decls []decl
	quals := map[string]bool{}
	declIdents := map[token.Pos]bool{}
	used := map[string]bool{}
	facade := map[string]bool{} // X of every timr.X in examples/ and cmd/
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		gated := strings.HasPrefix(path, "internal"+string(filepath.Separator)) || path == "timr.go"
		for _, d := range f.Decls {
			for _, id := range declaredNames(d) {
				declIdents[id.Pos()] = true
				if gated && id.IsExported() {
					qual := f.Name.Name + "." + id.Name
					if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
						qual = f.Name.Name + "." + recvString(fn.Recv.List[0].Type) + "." + id.Name
					}
					decls = append(decls, decl{id.Name, qual, fset.Position(id.Pos())})
					quals[qual] = true
				}
			}
		}
		client := strings.HasPrefix(path, "examples"+string(filepath.Separator)) || strings.HasPrefix(path, "cmd"+string(filepath.Separator))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "timr" && client {
					facade[n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declIdents[n.Pos()] {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		live := used[d.name]
		if strings.HasPrefix(d.qual, "timr.") {
			live = facade[d.name]
		}
		if _, ok := deadExportedAllow[d.qual]; !live && !ok {
			t.Errorf("%s: %s is referenced from no non-test file", d.pos, d.qual)
		}
	}
	for qual := range deadExportedAllow {
		if !quals[qual] {
			t.Errorf("allow-list entry %s names no declaration", qual)
		}
	}
}

// declaredNames returns the identifiers a top-level declaration declares:
// a func or method name, or each type, var and const name of a GenDecl.
func declaredNames(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// recvString renders a method receiver type as T or (*T), dropping any
// type parameters.
func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvString(e.X) + ")"
	case *ast.IndexExpr:
		return recvString(e.X)
	case *ast.IndexListExpr:
		return recvString(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
