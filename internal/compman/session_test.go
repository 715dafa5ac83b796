package compman

import (
	"math"
	"strings"
	"testing"

	"gupt/internal/telemetry"
)

func TestSessionOverWire(t *testing.T) {
	client, _ := startServer(t, 100)
	results, err := client.Session("census", &SessionSpec{
		TotalEpsilon: 4,
		Queries: []SessionQuery{
			{
				Program:      ProgramSpec{Type: "mean", Col: 0},
				OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
				Seed:         1,
			},
			{
				Program:      ProgramSpec{Type: "median", Col: 0},
				OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
				Seed:         2,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	// Equal ranges -> even split.
	if math.Abs(results[0].EpsilonSpent-2) > 1e-9 || math.Abs(results[1].EpsilonSpent-2) > 1e-9 {
		t.Errorf("allocations = %v, %v", results[0].EpsilonSpent, results[1].EpsilonSpent)
	}
	for i, r := range results {
		if math.Abs(r.Output[0]-40) > 15 {
			t.Errorf("query %d output = %v", i, r.Output[0])
		}
	}
	// One atomic charge of the session total.
	rem, _ := client.RemainingBudget("census")
	if math.Abs(rem-96) > 1e-9 {
		t.Errorf("remaining = %v, want 96", rem)
	}
}

func TestSessionOverWireProportional(t *testing.T) {
	client, _ := startServer(t, 100)
	results, err := client.Session("census", &SessionSpec{
		TotalEpsilon: 2,
		Queries: []SessionQuery{
			{Program: ProgramSpec{Type: "mean", Col: 0}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}}},
			{Program: ProgramSpec{Type: "variance", Col: 0}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 5625}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The wide-range variance query receives 5625/5775 of the budget.
	ratio := results[1].EpsilonSpent / results[0].EpsilonSpent
	if math.Abs(ratio-37.5) > 0.01 {
		t.Errorf("allocation ratio = %v, want 37.5", ratio)
	}
}

func TestSessionOverWireValidation(t *testing.T) {
	client, _ := startServer(t, 1)
	cases := []struct {
		name string
		ds   string
		spec *SessionSpec
		want string
	}{
		{"nil payload", "census", nil, "missing payload"},
		{"empty", "census", &SessionSpec{TotalEpsilon: 1}, "empty session"},
		{"unknown dataset", "ghost", &SessionSpec{TotalEpsilon: 1, Queries: []SessionQuery{{
			Program: ProgramSpec{Type: "mean"}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 1}},
		}}}, "not found"},
		{"binary member", "census", &SessionSpec{TotalEpsilon: 1, Queries: []SessionQuery{{
			Program: ProgramSpec{Type: "binary", Path: "/x", OutputDims: 1}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 1}},
		}}}, "not served"},
		{"range arity", "census", &SessionSpec{TotalEpsilon: 1, Queries: []SessionQuery{{
			Program: ProgramSpec{Type: "mean"}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}},
		}}}, "ranges"},
		{"over budget", "census", &SessionSpec{TotalEpsilon: 5, Queries: []SessionQuery{{
			Program: ProgramSpec{Type: "mean"}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		}}}, "budget exhausted"},
	}
	for _, c := range cases {
		_, err := client.Session(c.ds, c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// Failed sessions consumed nothing.
	rem, _ := client.RemainingBudget("census")
	if rem != 1 {
		t.Errorf("failed sessions consumed budget: %v", rem)
	}
}

// A served session's trace shows its charge: the flight recorder keeps the
// same admission, budget and release spans for it as for a single query,
// each closed ok, so /queries and /traces show where the session spent its
// time before and after its members ran.
func TestSessionTraceShowsCharge(t *testing.T) {
	client, srv := startServer(t, 100)
	if _, err := client.Session("census", &SessionSpec{
		TotalEpsilon: 2,
		Queries: []SessionQuery{{
			Program:      ProgramSpec{Type: "mean", Col: 0},
			OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
			Seed:         1,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	traces := srv.Recorder().Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces recorded, want 1", len(traces))
	}
	status := map[string]string{}
	for _, sp := range traces[0].Spans {
		if sp.Process == "" {
			status[sp.Stage] = sp.Status
		}
	}
	for _, stage := range []string{telemetry.StageAdmission, telemetry.StageBudget, telemetry.StageRelease} {
		if status[stage] != telemetry.StatusOK {
			t.Errorf("session trace: %s span %q, want ok (spans %+v)", stage, status[stage], traces[0].Spans)
		}
	}
}
