package compman

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// classRow is one row of SECURITY.md's wire-field table: the field and the
// class its second cell names.
var classRow = regexp.MustCompile("(?m)^\\| `(\\w+\\.\\w+)` \\| (DP release|function of the caller's own inputs|public constant|bounded leak of [^|]+ bits?[^|]*, stated) \\|")

// Every field the analyst wire returns, and every field of the program
// spec a request names, has one row in SECURITY.md's table that sorts it
// into one of four classes; a field added without a row, a row whose field
// is gone, and a row without a class fail here.
func TestWireFieldsClassified(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "SECURITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, m := range classRow.FindAllStringSubmatch(string(doc), -1) {
		rows[m[1]]++
	}
	fields := map[string]bool{}
	for _, v := range []any{Response{}, SessionResult{}, ServerStats{}, ProgramSpec{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			fields[name] = true
			if rows[name] != 1 {
				t.Errorf("SECURITY.md has %d classified rows for %s, want 1", rows[name], name)
			}
		}
	}
	for name := range rows {
		if !fields[name] {
			t.Errorf("SECURITY.md classifies %s, which is not a field", name)
		}
	}
}
