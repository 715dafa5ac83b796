package query

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// planCalls are the decisions the plan makes once: the default block size,
// the tuned one, the ε an accuracy goal costs, and the request's deadline.
var planCalls = map[string]bool{
	"core.DefaultBlockSize":   true,
	"aging.OptimizeBlockSize": true,
	"aging.EstimateEpsilon":   true,
	"context.WithTimeout":     true,
	"context.WithDeadline":    true,
}

// planFile is the one file of the pipeline and its hosts that may make
// those calls.
const planFile = "internal/query/plan.go"

// Nothing in the pipeline or its hosts re-derives β, ε or a deadline
// outside the plan: every such call in the non-test files of the query,
// budget and compman packages and the root package is in plan.go, except
// the public gupt.DefaultBlockSize wrapper and the worker pool's
// background redial, whose timeout bounds a dial no request waits for. A
// second place that decides one of them fails here, and so does a plan
// file that stops deciding them.
func TestPlanSiteInventory(t *testing.T) {
	root := filepath.Join("..", "..")
	inPlan := map[string]bool{}
	for _, dir := range []string{"internal/query", "internal/budget", "internal/compman", "."} {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			rel := filepath.ToSlash(filepath.Join(dir, name))
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, rel), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				ast.Inspect(decl, func(n ast.Node) bool {
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
					name := pkg.Name + "." + sel.Sel.Name
					switch {
					case !planCalls[name]:
					case rel == planFile:
						inPlan[name] = true
					case rel == "gupt.go" && fn != nil && fn.Name.Name == "DefaultBlockSize" && name == "core.DefaultBlockSize":
					case rel == "internal/compman/worker.go" && fn != nil && fn.Name.Name == "redial" && name == "context.WithTimeout":
					default:
						t.Errorf("%s calls %s outside %s: let the plan decide it", rel, name, planFile)
					}
					return true
				})
			}
		}
	}
	for name := range planCalls {
		if !inPlan[name] && name != "context.WithTimeout" {
			t.Errorf("%s no longer calls %s; update planCalls", planFile, name)
		}
	}
}
