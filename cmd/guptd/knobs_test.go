package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gupt/internal/compman"
)

// setter names how one server setting gets its value: the guptd flag whose
// variable main.go assigns to it, or the code-only caller that sets it.
// Exactly one of the two is non-empty.
type setter struct {
	flag string
	code string
}

// serverKnobs is the inventory of every compman.ServerConfig field, with
// SchedConfig's fields as "Sched.<name>". A setting nobody but its own
// unit test sets has no row to go in.
var serverKnobs = map[string]setter{
	"DefaultQuantum":      {flag: "quantum"},
	"WorkerAddrs":         {code: "wiring: the -workers list, split at commas"},
	"IdleTimeout":         {flag: "idle"},
	"BlockTimeout":        {flag: "block-timeout"},
	"QueryTimeout":        {flag: "query-timeout"},
	"ChamberWrapper":      {code: "internal/faultinject (chaos drills)"},
	"Logger":              {code: "wiring: guptd's process log"},
	"Telemetry":           {code: "wiring: the registry the admin endpoint serves"},
	"UnsafeTraces":        {flag: "unsafe-trace-log"},
	"Audit":               {code: "wiring: the log -audit-dir opens"},
	"CacheEntries":        {flag: "cache-entries"},
	"CacheTTL":            {flag: "cache-ttl"},
	"Tenants":             {code: "wiring: the registry -tenancy loads"},
	"WorkerConns":         {flag: "worker-conns"},
	"StragglerAfter":      {flag: "straggler-after"},
	"Sched.MaxConcurrent": {flag: "max-concurrent"},
	"Sched.MaxQueue":      {flag: "max-queue"},
}

// otherFlags lists the guptd flags that set no server field, with what
// each one configures instead.
var otherFlags = map[string]string{
	"listen":          "the analyst wire's listen address",
	"admin-addr":      "the admin HTTP endpoint",
	"admin-token":     "the admin endpoint's token gate",
	"audit-dir":       "audit.Open, which becomes ServerConfig.Audit",
	"audit-max-bytes": "audit.Options.MaxBytes",
	"audit-fsync":     "audit.Options.Fsync",
	"ledger-dir":      "ledger.Open and ledger.Attach",
	"workers":         "the list that becomes ServerConfig.WorkerAddrs",
	"tenancy":         "tenant.Load, which becomes ServerConfig.Tenants",
	"tenants-file":    "the file tenant.Load reads",
	"dataset":         "registerSpec, one table per use",
}

// workerKnobs is the same inventory for compman.WorkerConfig, set by
// cmd/gupt-worker.
var workerKnobs = map[string]setter{
	"ChamberWrapper": {code: "internal/faultinject (chaos drills)"},
	"Logger":         {code: "wiring: gupt-worker's process log"},
	"Telemetry":      {code: "wiring: the registry the admin endpoint serves"},
}

// workerOtherFlags lists the gupt-worker flags that set no worker field.
var workerOtherFlags = map[string]string{
	"listen":      "the work wire's listen address",
	"admin-addr":  "the admin HTTP endpoint",
	"admin-token": "the admin endpoint's token gate",
}

const (
	wantFlags        = 22
	wantServerFields = 17
	wantWorkerFlags  = 3
	wantWorkerFields = 3
)

// mainFlags parses a command's main.go and returns each flag's name mapped
// to the variable its value lands in, plus the identifiers each field of
// the named config literals is built from (keyed by the literal's prefix
// and the field name).
func mainFlags(t *testing.T, file string, literals map[string]string) (flags map[string]string, fieldVars map[string]map[string]bool) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags = map[string]string{}
	fieldVars = map[string]map[string]bool{}
	flagName := func(call *ast.CallExpr, arg int) (string, bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) <= arg {
			return "", false
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return "", false
		}
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		name, err := strconv.Unquote(lit.Value)
		return name, err == nil
	}
	literal := func(lit *ast.CompositeLit, prefix string) {
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			vars := map[string]bool{}
			ast.Inspect(kv.Value, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					vars[id.Name] = true
				}
				return true
			})
			fieldVars[prefix+kv.Key.(*ast.Ident).Name] = vars
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if call, ok := v.(*ast.CallExpr); ok {
					if name, ok := flagName(call, 0); ok {
						flags[name] = n.Names[i].Name
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Var" {
				if name, ok := flagName(n, 1); ok {
					flags[name] = "" // bound to a flag.Value, not a variable
				}
			}
		case *ast.CompositeLit:
			sel, ok := n.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if prefix, ok := literals[sel.Sel.Name]; ok {
				literal(n, prefix)
			}
		}
		return true
	})
	return flags, fieldVars
}

// configFields lists a config struct's fields by reflection, with the
// struct Sched expanded into SchedConfig's fields.
func configFields(cfg reflect.Type) []string {
	var fields []string
	for i := 0; i < cfg.NumField(); i++ {
		f := cfg.Field(i)
		if f.Type != reflect.TypeOf(compman.SchedConfig{}) {
			fields = append(fields, f.Name)
			continue
		}
		for j := 0; j < f.Type.NumField(); j++ {
			fields = append(fields, f.Name+"."+f.Type.Field(j).Name)
		}
	}
	return fields
}

// inventory is one daemon's knobs: the flags its main.go defines and the
// config struct they build, each against its rows.
type inventory struct {
	name       string
	main       string            // the command's main.go
	literals   map[string]string // config literal type -> field-name prefix
	config     reflect.Type
	knobs      map[string]setter
	otherFlags map[string]string
	wantFlags  int
	wantFields int
}

// guptdLiterals are the config literals guptd's main.go builds.
var guptdLiterals = map[string]string{"ServerConfig": "", "SchedConfig": "Sched."}

var inventories = []inventory{
	{
		name: "guptd", main: "main.go", literals: guptdLiterals,
		config: reflect.TypeOf(compman.ServerConfig{}),
		knobs:  serverKnobs, otherFlags: otherFlags,
		wantFlags: wantFlags, wantFields: wantServerFields,
	},
	{
		name: "gupt-worker", main: "../gupt-worker/main.go", literals: map[string]string{"WorkerConfig": ""},
		config: reflect.TypeOf(compman.WorkerConfig{}),
		knobs:  workerKnobs, otherFlags: workerOtherFlags,
		wantFlags: wantWorkerFlags, wantFields: wantWorkerFields,
	},
}

// Every knob has a caller: each guptd and gupt-worker setting is set by a
// flag or by a named piece of code, each flag sets a setting or is listed
// with its other use, and the counts move only when this inventory does.
func TestKnobInventory(t *testing.T) {
	for _, inv := range inventories {
		t.Run(inv.name, inv.check)
	}
}

func (inv inventory) check(t *testing.T) {
	flags, fieldVars := mainFlags(t, inv.main, inv.literals)
	fields := configFields(inv.config)
	if len(fields) != inv.wantFields {
		t.Errorf("the config has %d fields, want %d", len(fields), inv.wantFields)
	}
	flagSetsField := map[string]string{}
	for _, field := range fields {
		row, ok := inv.knobs[field]
		switch {
		case !ok:
			t.Errorf("field %s has no row: name the flag or code that sets it, or delete it", field)
			continue
		case (row.flag == "") == (row.code == ""):
			t.Errorf("field %s: a row names a flag or a code-only caller, exactly one", field)
			continue
		case row.code != "":
			continue
		}
		v, defined := flags[row.flag]
		if !defined {
			t.Errorf("field %s names flag -%s, which main.go does not define", field, row.flag)
			continue
		}
		if !fieldVars[field][v] {
			t.Errorf("main.go does not set %s from -%s", field, row.flag)
		}
		flagSetsField[row.flag] = field
	}
	known := map[string]bool{}
	for _, f := range fields {
		known[f] = true
	}
	for field := range inv.knobs {
		if !known[field] {
			t.Errorf("row for %s, which the config does not have", field)
		}
	}

	if len(flags) != inv.wantFlags {
		names := make([]string, 0, len(flags))
		for name := range flags {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("main.go defines %d flags, want %d: %v", len(flags), inv.wantFlags, names)
	}
	for name := range flags {
		_, other := inv.otherFlags[name]
		field, sets := flagSetsField[name]
		switch {
		case !other && !sets:
			t.Errorf("flag -%s has no row: name the config field it sets or its other use", name)
		case other && sets:
			t.Errorf("flag -%s is listed both as setting %s and as %q", name, field, inv.otherFlags[name])
		}
	}
	for name := range inv.otherFlags {
		if _, ok := flags[name]; !ok {
			t.Errorf("row for flag -%s, which main.go does not define", name)
		}
	}
}

// runnableDocs are the documents whose code blocks launch guptd.
var runnableDocs = []string{"../../README.md", "../../.claude/skills/verify/SKILL.md"}

// docFlags returns every -name token that follows a guptd command in the
// fenced code blocks of a Markdown document, with backslash continuations
// joined, up to the first shell operator or comment.
func docFlags(doc string) []string {
	var names []string
	inCode := false
	var cmd strings.Builder
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inCode = !inCode
			cmd.Reset()
			continue
		}
		if !inCode {
			continue
		}
		if cont, ok := strings.CutSuffix(strings.TrimRight(line, " \t"), "\\"); ok {
			cmd.WriteString(cont + " ")
			continue
		}
		cmd.WriteString(line)
		launched := false
		for _, tok := range strings.Fields(cmd.String()) {
			if tok[0] == '#' {
				break
			}
			if strings.ContainsAny(tok, "&|;<>") {
				launched = false
				continue
			}
			if path.Base(tok) == "guptd" {
				launched = true
				continue
			}
			name, ok := strings.CutPrefix(tok, "-")
			name = strings.TrimPrefix(name, "-")
			if launched && ok && name != "" && name[0] >= 'a' && name[0] <= 'z' {
				name, _, _ = strings.Cut(name, "=")
				names = append(names, name)
			}
		}
		cmd.Reset()
	}
	return names
}

// A guptd command line in a runnable document uses only flags main.go
// defines: a deleted flag makes the documented command exit with "flag
// provided but not defined".
func TestDocsUseDefinedFlags(t *testing.T) {
	flags, _ := mainFlags(t, "main.go", guptdLiterals)
	for _, doc := range runnableDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		names := docFlags(string(b))
		if len(names) == 0 {
			t.Errorf("%s: no guptd command line found", doc)
		}
		for _, name := range names {
			if _, ok := flags[name]; !ok {
				t.Errorf("%s launches guptd with -%s, which main.go does not define", doc, name)
			}
		}
	}
}
