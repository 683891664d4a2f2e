package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"timr/internal/ml"
	"timr/internal/stats"
)

// sharedCtx caches one quick-scale BT run across the experiment tests.
var sharedCtx = NewContext(QuickOptions())

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 42)
	s := tab.String()
	for _, want := range []string{"== demo ==", "a", "bb", "note: hello 42"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) < 9 {
		t.Errorf("registry has %d experiments", len(All()))
	}
	if _, err := ByName("fig16"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name must error")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("names not sorted")
		}
	}
	// An experiment reproduces a result of the paper, so its caption
	// names the section, figure or example. A measurement of this
	// implementation alone belongs in the benchmark ledger (bench/).
	for _, e := range All() {
		if !strings.HasPrefix(e.Caption, "§") && !strings.HasPrefix(e.Caption, "Figure") && !strings.HasPrefix(e.Caption, "Example") {
			t.Errorf("experiment %q: caption %q names no paper section, figure or example", e.Name, e.Caption)
		}
	}
}

func TestBTRunShape(t *testing.T) {
	r, err := sharedCtx.BT()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Labeled) == 0 || len(r.Train) == 0 {
		t.Fatal("empty pipeline outputs")
	}
	if len(r.Scores) == 0 {
		t.Fatal("no scored ads")
	}
	// Every ad with scores must be a real ad id.
	for ad := range r.Scores {
		found := false
		for _, a := range r.Data.Ads {
			if a.ID == ad {
				found = true
			}
		}
		if !found {
			t.Errorf("scores for unknown ad %d", ad)
		}
	}
}

func TestAdExamplesSplit(t *testing.T) {
	r, err := sharedCtx.BT()
	if err != nil {
		t.Fatal(err)
	}
	ad := r.Data.Ads[0]
	train, test := r.AdExamples(ad.ID)
	if len(train) == 0 || len(test) == 0 {
		t.Fatalf("train=%d test=%d", len(train), len(test))
	}
	// Both sets must contain clicks and non-clicks.
	hasClick := func(ex []ml.Example) bool {
		for _, e := range ex {
			if e.Clicked {
				return true
			}
		}
		return false
	}
	if !hasClick(train) || !hasClick(test) {
		t.Error("splits lack positive examples")
	}
}

func TestPlantedKeywordsRecovered(t *testing.T) {
	// The headline feature-selection claim: the z-test recovers planted
	// correlations with the right signs (Figures 17-19 ground truth).
	r, err := sharedCtx.BT()
	if err != nil {
		t.Fatal(err)
	}
	var posRight, posWrong, negRight, negWrong int
	for _, ad := range r.Data.Ads {
		scores := r.Scores[ad.ID]
		for _, kw := range ad.Pos {
			if z, ok := scores[kw]; ok {
				if z > 0 {
					posRight++
				} else if z < -stats.Z80 {
					posWrong++
				}
			}
		}
		for _, kw := range ad.Neg {
			if z, ok := scores[kw]; ok {
				if z < 0 {
					negRight++
				} else if z > stats.Z80 {
					negWrong++
				}
			}
		}
	}
	if posRight == 0 {
		t.Fatal("no planted positive keyword scored positive")
	}
	if posWrong > posRight/4 {
		t.Errorf("planted positives misclassified: %d right, %d confidently wrong", posRight, posWrong)
	}
	if negRight == 0 {
		t.Fatal("no planted negative keyword scored negative")
	}
	if negWrong > negRight/4 {
		t.Errorf("planted negatives misclassified: %d right, %d confidently wrong", negRight, negWrong)
	}
}

func TestEvaluateSchemeSanity(t *testing.T) {
	r, err := sharedCtx.BT()
	if err != nil {
		t.Fatal(err)
	}
	ad := r.Data.Ads[0]
	train, test := r.AdExamples(ad.ID)
	res := EvaluateScheme(schemesFor(r, ad.ID)[0], train, test, 10)
	if res.Dims <= 0 {
		t.Errorf("dims = %d", res.Dims)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no curve")
	}
	last := res.Curve[len(res.Curve)-1]
	if last.Coverage != 1 {
		t.Errorf("curve must reach full coverage, got %v", last.Coverage)
	}
}

func TestExperimentsRunAtQuickScale(t *testing.T) {
	// Every registered experiment must produce a non-empty table.
	if testing.Short() {
		t.Skip("quick experiments still take ~a minute")
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tab, err := e.Run(sharedCtx)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("empty table")
			}
			t.Logf("\n%s", tab)
		})
	}
}

// TestClustersChargeTheShuffle: the makespans the experiments report
// include the modeled shuffle, mapreduce.DefaultConfig's ShufflePerRow.
// So every experiment cluster starts from clusterConfig: one built from
// a mapreduce.Config literal charges none.
func TestClustersChargeTheShuffle(t *testing.T) {
	if cfg := clusterConfig(8); cfg.Machines != 8 || cfg.ShufflePerRow <= 0 {
		t.Fatalf("clusterConfig(8) = %+v, want 8 machines and a shuffle charge", cfg)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Config" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "mapreduce" {
					t.Errorf("%s: a cluster built from a mapreduce.Config literal charges no shuffle; start from clusterConfig", fset.Position(lit.Pos()))
				}
			}
			return true
		})
	}
}
