package sandbox

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// execSites is the inventory of every non-test file outside bench/ that can
// start a process: it imports os/exec, names sandbox.Subprocess, or calls
// os.StartProcess or one of syscall's exec functions. Each row says why the
// file may. Neither daemon's request path has a row: nothing a request
// names is ever executed.
var execSites = map[string]string{
	"internal/sandbox/subprocess.go":      "the Subprocess chamber itself",
	"internal/experiments/overhead.go":    "§6.1 isolation overhead: runs the in-tree gupt-app in Subprocess chambers",
	"internal/experiments/sidechannel.go": "§6 state attack: runs the in-tree gupt-app in Subprocess chambers",
	"cmd/gupt-bench/main.go":              "builds gupt-app with go build for the overhead experiment",
}

// processStarters are the package-level functions, outside os/exec, that
// start a process.
var processStarters = map[string]map[string]bool{
	"os":      {"StartProcess": true},
	"syscall": {"Exec": true, "ForkExec": true, "StartProcess": true},
}

// execReason reports why a parsed file counts as an exec site, or "".
func execReason(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "os/exec" {
			return "imports os/exec"
		}
	}
	reason := ""
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok {
				switch {
				case pkg.Name == "sandbox" && sel.Sel.Name == "Subprocess":
					reason = "names sandbox.Subprocess"
				case processStarters[pkg.Name][sel.Sel.Name]:
					reason = "calls " + pkg.Name + "." + sel.Sel.Name
				}
			}
		}
		return reason == ""
	})
	return reason
}

// Every place that can start a process is listed with its reason, and every
// row still names such a place. A new exec site — say, a daemon that runs a
// program a request names — fails here until someone writes down why.
func TestExecSiteInventory(t *testing.T) {
	root := filepath.Join("..", "..")
	found := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if reason := execReason(f); reason != "" {
			found[rel] = reason
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for file, how := range found {
		if _, ok := execSites[file]; !ok {
			t.Errorf("%s %s but has no row in execSites: say why it may start a process, or remove the exec", file, how)
		}
	}
	for file := range execSites {
		if _, ok := found[file]; !ok {
			t.Errorf("row for %s, which starts no process", file)
		}
	}
}
