package dataset

import (
	"errors"
	"sync"
	"testing"

	"gupt/internal/allocguard"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

func sampleTable(t *testing.T, n int) *Table {
	t.Helper()
	rows := make([]mathutil.Vec, n)
	for i := range rows {
		rows[i] = mathutil.Vec{float64(i), float64(i % 7)}
	}
	tbl, err := FromRows([]string{"a", "b"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestRegisterAndLookup(t *testing.T) {
	reg := NewRegistry()
	_, err := reg.Register("census", sampleTable(t, 10), RegisterOptions{TotalBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := reg.Lookup("census")
	if err != nil {
		t.Fatal(err)
	}
	if r.Private.NumRows() != 10 || r.Accountant.Total() != 2 {
		t.Errorf("registered dataset wrong: rows=%d total=%v", r.Private.NumRows(), r.Accountant.Total())
	}
	if r.HasAged() {
		t.Error("no aged data requested but HasAged is true")
	}
	if _, err := reg.Lookup("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup of unknown name, err=%v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	reg := NewRegistry()
	tbl := sampleTable(t, 10)
	cases := []struct {
		name string
		n    string
		tbl  *Table
		opts RegisterOptions
	}{
		{"empty name", "", tbl, RegisterOptions{TotalBudget: 1}},
		{"nil table", "x", nil, RegisterOptions{TotalBudget: 1}},
		{"empty table", "x", New(nil), RegisterOptions{TotalBudget: 1}},
		{"zero budget", "x", tbl, RegisterOptions{}},
		{"negative budget", "x", tbl, RegisterOptions{TotalBudget: -1}},
		{"aged fraction 1", "x", tbl, RegisterOptions{TotalBudget: 1, AgedFraction: 1}},
		{"both aged forms", "x", tbl, RegisterOptions{TotalBudget: 1, AgedFraction: 0.5, Aged: sampleTable(t, 2)}},
		{"bad ranges", "x", tbl, RegisterOptions{TotalBudget: 1, Ranges: []dp.Range{{Lo: 0, Hi: 1}}}},
	}
	for _, c := range cases {
		if _, err := reg.Register(c.n, c.tbl, c.opts); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestRegisterDuplicate(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Register("d", sampleTable(t, 5), RegisterOptions{TotalBudget: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("d", sampleTable(t, 5), RegisterOptions{TotalBudget: 1}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate accepted, err=%v", err)
	}
}

func TestRegisterAgedFraction(t *testing.T) {
	reg := NewRegistry()
	r, err := reg.Register("d", sampleTable(t, 100), RegisterOptions{TotalBudget: 1, AgedFraction: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasAged() {
		t.Fatal("aged sample missing")
	}
	if r.Aged.NumRows() != 20 || r.Private.NumRows() != 80 {
		t.Errorf("aged/private split %d/%d, want 20/80", r.Aged.NumRows(), r.Private.NumRows())
	}
}

func TestRegisterExplicitAged(t *testing.T) {
	reg := NewRegistry()
	aged := sampleTable(t, 30)
	r, err := reg.Register("d", sampleTable(t, 100), RegisterOptions{TotalBudget: 1, Aged: aged})
	if err != nil {
		t.Fatal(err)
	}
	if r.Aged.NumRows() != 30 || r.Private.NumRows() != 100 {
		t.Errorf("explicit aged %d/%d", r.Aged.NumRows(), r.Private.NumRows())
	}
}

func TestRegisterWithRanges(t *testing.T) {
	reg := NewRegistry()
	ranges := []dp.Range{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 6}}
	r, err := reg.Register("d", sampleTable(t, 10), RegisterOptions{TotalBudget: 1, Ranges: ranges})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Private.Ranges()
	if len(got) != 2 || got[0].Hi != 100 {
		t.Errorf("ranges not attached: %v", got)
	}
}

func TestUnregister(t *testing.T) {
	reg := NewRegistry()
	_, _ = reg.Register("d", sampleTable(t, 5), RegisterOptions{TotalBudget: 1})
	if err := reg.Unregister("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup("d"); !errors.Is(err, ErrNotFound) {
		t.Error("dataset still present after Unregister")
	}
	if err := reg.Unregister("d"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Unregister, err=%v", err)
	}
}

func TestNames(t *testing.T) {
	reg := NewRegistry()
	_, _ = reg.Register("zeta", sampleTable(t, 5), RegisterOptions{TotalBudget: 1})
	_, _ = reg.Register("alpha", sampleTable(t, 5), RegisterOptions{TotalBudget: 1})
	names := reg.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("Names = %v", names)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			if _, err := reg.Register(name, sampleTable(t, 5), RegisterOptions{TotalBudget: 1}); err != nil {
				t.Errorf("register %s: %v", name, err)
				return
			}
			if _, err := reg.Lookup(name); err != nil {
				t.Errorf("lookup %s: %v", name, err)
			}
		}(i)
	}
	wg.Wait()
	if len(reg.Names()) != 20 {
		t.Errorf("expected 20 datasets, got %d", len(reg.Names()))
	}
}

// The registry's accountant is the single gate on a dataset's budget:
// spending through one lookup is visible through another (the
// platform-owned ledger that defeats privacy-budget attacks).
func TestRegistrySharedAccountant(t *testing.T) {
	reg := NewRegistry()
	_, _ = reg.Register("d", sampleTable(t, 5), RegisterOptions{TotalBudget: 1})
	r1, _ := reg.Lookup("d")
	r2, _ := reg.Lookup("d")
	if err := r1.Accountant.Spend("q", 0.8); err != nil {
		t.Fatal(err)
	}
	if err := r2.Accountant.Spend("q", 0.5); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Errorf("second handle allowed overspend, err=%v", err)
	}
}

// Registering a table allocates a constant number of objects for its
// cells, however many rows it has: the table is one row-major array, and
// the aged split copies each part into one array of its own. Built row by
// row, the same registration allocated one object per row.
func TestRegisterAllocations(t *testing.T) {
	allocguard.SkipUnderRace(t, "the race detector adds allocations of its own")
	register := func(tbl *Table, opts RegisterOptions) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := NewRegistry().Register("d", tbl, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Measured 5 and 14 at both sizes; a garbage collection that starts
	// inside one of the large allocations can add one of its own.
	for _, c := range []struct {
		name string
		opts RegisterOptions
		max  float64
	}{
		{"whole table", RegisterOptions{TotalBudget: 1}, 6},
		{"aged split", RegisterOptions{TotalBudget: 1, AgedFraction: 0.1, Seed: 3}, 15},
	} {
		for _, n := range []int{200, 20000} {
			if allocs := register(sampleTable(t, n), c.opts); allocs > c.max {
				t.Errorf("%s: registering %d rows allocates %.0f times, want ≤ %.0f", c.name, n, allocs, c.max)
			}
		}
	}
}
