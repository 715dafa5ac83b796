package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

type fakeResult string

func (f fakeResult) Table() string { return "table" }
func (f fakeResult) CSV() string   { return string(f) }

func TestReportRoundTrip(t *testing.T) {
	r := &Report{Seed: 42, Quick: true}
	r.record("fig4", fakeResult("eps,err\n0.5,1.25\n1,0.6\n"), 1500*time.Millisecond, nil)
	r.record("tab1", stringResult("text only"), 10*time.Millisecond, nil)
	r.record("fig9", nil, 5*time.Millisecond, errors.New("boom"))

	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(&got, r) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", got, *r)
	}

	if len(got.Experiments) != 3 {
		t.Fatalf("experiments = %d, want 3", len(got.Experiments))
	}
	fig4 := got.Experiments[0]
	if !fig4.OK || fig4.WallMillis != 1500 {
		t.Fatalf("fig4 = %+v", fig4)
	}
	if fig4.Series == nil || !reflect.DeepEqual(fig4.Series.Header, []string{"eps", "err"}) {
		t.Fatalf("fig4 series = %+v", fig4.Series)
	}
	if len(fig4.Series.Rows) != 2 || fig4.Series.Rows[1][1] != "0.6" {
		t.Fatalf("fig4 rows = %+v", fig4.Series.Rows)
	}
	if tab1 := got.Experiments[1]; !tab1.OK || tab1.Series != nil {
		t.Fatalf("tab1 (no CSV series) = %+v", tab1)
	}
	if fig9 := got.Experiments[2]; fig9.OK || fig9.Error != "boom" {
		t.Fatalf("fig9 = %+v", fig9)
	}
}
