package budget

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

// chargerMethods are dataset.Charger's two methods: the calls that move ε
// or journal a re-release.
var chargerMethods = map[string]bool{"SpendAs": true, "RecordCacheHitAs": true}

// The manager is the only road to a dataset's charger (paper §6.2): no
// non-test file of the main module calls SpendAs or RecordCacheHitAs
// except the manager itself and dataset.Registered's forwarding to the
// bound charger. A spend that goes around the manager skips its quota
// check, counters and burn-down plane, and fails here; so does a manager
// that stops making those calls.
func TestChargeSiteInventory(t *testing.T) {
	root := filepath.Join("..", "..")
	inManager := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			// Other modules (bench/) and non-Go trees are not the main module.
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !chargerMethods[sel.Sel.Name] {
					return true
				}
				switch dir := filepath.ToSlash(filepath.Dir(rel)); {
				case dir == "internal/budget":
					inManager[sel.Sel.Name] = true
				case dir == "internal/dataset" && fn != nil && fn.Recv != nil && fn.Name.Name == sel.Sel.Name:
					// Registered forwarding a method to its bound charger.
				default:
					t.Errorf("%s calls %s outside the budget manager: charge through budget.Manager", rel, sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range chargerMethods {
		if !inManager[name] {
			t.Errorf("internal/budget no longer calls %s; update chargerMethods", name)
		}
	}
}
