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

// TestValueEncodingHasOneReader fails on every non-test file other than
// internal/temporal/value.go that builds a temporal.Value from its words
// (a Value{…} composite literal with elements) or names the tags array
// whose bytes null, float, bool and the empty string point at. A Value's
// kind is carried by its pointer word (value.go's Value doc), so the
// encoding has one reader and one writer: everything else goes through
// the constructors, Kind and the As* accessors. Value{} with no elements
// is Int(0) and stays legal.
func TestValueEncodingHasOneReader(t *testing.T) {
	owner := filepath.Join("internal", "temporal", "value.go")
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == owner {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inTemporal := f.Name.Name == "temporal"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if len(n.Elts) > 0 && isValueType(n.Type, inTemporal) {
					t.Errorf("%s: Value composite literal with elements; use a constructor from value.go", fset.Position(n.Pos()))
				}
			case *ast.Ident:
				if inTemporal && n.Name == "tags" {
					t.Errorf("%s: mentions the kind tags; only value.go reads or writes them", fset.Position(n.Pos()))
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

// isValueType reports whether a composite literal's type is temporal.Value:
// Value inside package temporal, temporal.Value elsewhere.
func isValueType(e ast.Expr, inTemporal bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return inTemporal && e.Name == "Value"
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && x.Name == "temporal" && e.Sel.Name == "Value"
	}
	return false
}
