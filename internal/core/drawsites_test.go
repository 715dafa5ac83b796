package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// seamFunc is the one function that makes the generators a release draws
// from, and seamFile the file it lives in.
const (
	seamFunc = "newCoins"
	seamFile = "internal/core/coins.go"
)

// generatorCtors are the calls that start a random stream, keyed by import
// path: mathutil's generators and math/rand's constructors. A zero-argument
// Split method call, (*mathutil.RNG).Split, is checked separately, since
// the parser does not know the receiver's type.
var generatorCtors = map[string]map[string]bool{
	"gupt/internal/mathutil": {"GetRNG": true, "NewRNG": true},
	"math/rand":              {"New": true, "NewSource": true},
	"math/rand/v2":           {"New": true, "NewPCG": true, "NewChaCha8": true},
}

// Every coin a release draws comes through the seam (paper §4: the
// partition and the noise are hidden from the analyst): no non-test file of
// the root package or of the core, dp, query, compman, budget and aging
// packages makes a generator anywhere else. A second source, such as a
// host that seeds one from a request field, fails here; so does a seam that
// stops making the generators, or that nothing calls.
//
// One exception: gupt.SynthesizeAgedSample seeds mathutil.NewRNG from its
// own argument. It is the embedded, trusted data owner's separate sketch
// release (§3.3's aged sample), not an analyst's query, and its stream must
// not move.
func TestDrawSiteInventory(t *testing.T) {
	root := filepath.Join("..", "..")
	var seamMakes, seamCalled bool
	for _, dir := range []string{".", "internal/core", "internal/dp", "internal/query", "internal/compman", "internal/budget", "internal/aging"} {
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
			imports := map[string]string{} // local name → import path
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				local := filepath.Base(path)
				if path == "math/rand/v2" {
					local = "rand"
				}
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = path
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
					var ctor string
					if pkg, ok := sel.X.(*ast.Ident); ok && generatorCtors[imports[pkg.Name]][sel.Sel.Name] {
						ctor = imports[pkg.Name] + "." + sel.Sel.Name
					} else if sel.Sel.Name == "Split" && len(call.Args) == 0 {
						ctor = "(*mathutil.RNG).Split"
					} else {
						if dir == "internal/core" && sel.Sel.Name == seamFunc {
							seamCalled = true
						}
						return true
					}
					switch {
					case rel == seamFile && fn != nil && fn.Name.Name == seamFunc:
						seamMakes = true
					case rel == "gupt.go" && fn != nil && fn.Name.Name == "SynthesizeAgedSample" && ctor == "gupt/internal/mathutil.NewRNG":
					default:
						t.Errorf("%s calls %s outside %s's %s: draw from the seam", rel, ctor, seamFile, seamFunc)
					}
					return true
				})
			}
		}
	}
	if !seamMakes {
		t.Errorf("%s's %s makes no generator; update the inventory", seamFile, seamFunc)
	}
	if !seamCalled {
		t.Errorf("nothing in internal/core calls %s", seamFunc)
	}
}
