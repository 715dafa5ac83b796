package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// stageCalls are the engine entry points and the decisions the query
// stage makes — β tuning, the ε of an accuracy goal, the §5.2 ζ split and
// the budget book — that a figure would otherwise make by hand.
var stageCalls = map[string]bool{
	"core.Run":                true,
	"core.NewPlan":            true,
	"aging.EstimateEpsilon":   true,
	"aging.OptimizeBlockSize": true,
	"budget.Zeta":             true,
	"budget.Distribute":       true,
	"dp.NewAccountant":        true,
}

// engineOnly are the files that measure the engine alone, Fig. 6's
// completion times and the §6.2 timing attack, and may call it directly.
var engineOnly = map[string]bool{"fig6.go": true, "timing.go": true}

// Every figure and ablation reaches the engine through the query stage, so
// make repro certifies the plan and the charge an analyst's query takes
// and not a copy of them: no non-test file here calls one of stageCalls,
// except that the timing experiments call core.Run and core.NewPlan.
func TestCoreRunSiteInventory(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch call := pkg.Name + "." + sel.Sel.Name; {
			case !stageCalls[call]:
			case engineOnly[name] && pkg.Name == "core":
			default:
				t.Errorf("%s calls %s: run the query through the lab's stage", name, call)
			}
			return true
		})
	}
}
