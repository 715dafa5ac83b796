package ledger

import (
	"errors"
	"testing"

	"gupt/internal/budget"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

func testTable(t *testing.T, rows int) *dataset.Table {
	t.Helper()
	tbl := dataset.New([]string{"x"})
	for i := 0; i < rows; i++ {
		if err := tbl.Append(mathutil.Vec{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// Attach binds existing datasets and, via the registration hook, datasets
// registered afterwards; charges through the budget manager (the platform
// charge path) must survive a "crash" — reopening the directory from
// scratch.
func TestAttachRoutesManagerCharges(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})

	reg := dataset.NewRegistry()
	if _, err := reg.Register("pre", testTable(t, 50), dataset.RegisterOptions{TotalBudget: 10}); err != nil {
		t.Fatal(err)
	}
	if err := Attach(l, reg); err != nil {
		t.Fatal(err)
	}
	// Registered after Attach: the hook must bind it transparently.
	if _, err := reg.Register("post", testTable(t, 50), dataset.RegisterOptions{TotalBudget: 5}); err != nil {
		t.Fatal(err)
	}

	mgr := budget.NewManager(reg)
	if err := mgr.Charge("pre", "q1", 2); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Charge("post", "q2", 1.5); err != nil {
		t.Fatal(err)
	}
	if rem, _ := mgr.Remaining("pre"); rem != 8 {
		t.Fatalf("pre remaining = %v, want 8", rem)
	}
	l.Close()

	// Crash-restart: fresh registry (as guptd would rebuild from -dataset
	// flags), fresh ledger over the same dir.
	l2 := openTest(t, dir, Options{})
	reg2 := dataset.NewRegistry()
	reg2.Register("pre", testTable(t, 50), dataset.RegisterOptions{TotalBudget: 10})
	reg2.Register("post", testTable(t, 50), dataset.RegisterOptions{TotalBudget: 5})
	if err := Attach(l2, reg2); err != nil {
		t.Fatal(err)
	}
	mgr2 := budget.NewManager(reg2)
	if rem, _ := mgr2.Remaining("pre"); rem != 8 {
		t.Fatalf("recovered pre remaining = %v, want 8", rem)
	}
	if rem, _ := mgr2.Remaining("post"); rem != 3.5 {
		t.Fatalf("recovered post remaining = %v, want 3.5", rem)
	}
	// And the restored books still enforce exhaustion durably.
	if err := mgr2.Charge("post", "q3", 4); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("overdraft after recovery: err = %v, want ErrBudgetExhausted", err)
	}
}

// A closed ledger makes the registration hook fail, and the failed dataset
// must not be half-registered.
func TestAttachFailClosed(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	reg := dataset.NewRegistry()
	if err := Attach(l, reg); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := reg.Register("late", testTable(t, 50), dataset.RegisterOptions{TotalBudget: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register on closed ledger err = %v, want ErrClosed", err)
	}
	if _, err := reg.Lookup("late"); !errors.Is(err, dataset.ErrNotFound) {
		t.Fatal("failed registration must not publish the dataset")
	}
}

// Registered.SpendAs without a bound charger still hits the accountant —
// the non-durable default path keeps working.
func TestSpendWithoutCharger(t *testing.T) {
	reg := dataset.NewRegistry()
	r, err := reg.Register("plain", testTable(t, 50), dataset.RegisterOptions{TotalBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SpendAs("", "q", 1.5); err != nil {
		t.Fatal(err)
	}
	if got := r.Accountant.Spent(); got != 1.5 {
		t.Fatalf("spent = %v, want 1.5", got)
	}
}
