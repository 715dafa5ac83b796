package dp

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAccountantBasicSpend(t *testing.T) {
	a := NewAccountant(1.0)
	if err := a.Spend("q1", 0.4); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("q2", 0.6); err != nil {
		t.Fatal(err)
	}
	if r := a.Remaining(); math.Abs(r) > 1e-9 {
		t.Errorf("Remaining = %v, want 0", r)
	}
	if err := a.Spend("q3", 0.01); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("overspend allowed, err=%v", err)
	}
	if got := a.Queries(); got != 2 {
		t.Errorf("Queries = %d, want 2 (failed spend must not be counted)", got)
	}
}

func TestAccountantRejectsInvalidEpsilon(t *testing.T) {
	a := NewAccountant(1)
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := a.Spend("bad", eps); err == nil {
			t.Errorf("Spend(%v) accepted", eps)
		}
	}
	if a.Spent() != 0 {
		t.Errorf("invalid spends consumed budget: %v", a.Spent())
	}
}

func TestAccountantZeroBudgetRejectsAll(t *testing.T) {
	a := NewAccountant(0)
	if err := a.Spend("q", 1e-9); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("zero-budget accountant accepted a charge, err=%v", err)
	}
	neg := NewAccountant(-5)
	if neg.Total() != 0 {
		t.Errorf("negative total normalized to %v, want 0", neg.Total())
	}
}

func TestAccountantFloatAccumulationTolerance(t *testing.T) {
	// Spending 1/3 three times should exactly exhaust a budget of 1 without
	// tripping on float error.
	a := NewAccountant(1)
	for i := 0; i < 3; i++ {
		if err := a.Spend("third", 1.0/3.0); err != nil {
			t.Fatalf("spend %d failed: %v", i, err)
		}
	}
}

func TestAccountantConcurrentSpendNeverExceedsTotal(t *testing.T) {
	a := NewAccountant(10)
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted := 0
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if a.Spend("c", 0.5) == nil {
				mu.Lock()
				granted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted != 20 {
		t.Errorf("granted %d charges of 0.5 against budget 10, want 20", granted)
	}
	if a.Spent() > a.Total()+1e-9 {
		t.Errorf("spent %v exceeds total %v", a.Spent(), a.Total())
	}
}

// Property: for any sequence of positive charges, the accountant's spent
// total equals the sum of granted charges and never exceeds the budget.
func TestAccountantConservationProperty(t *testing.T) {
	f := func(rawCharges []float64) bool {
		a := NewAccountant(5)
		var granted float64
		for _, c := range rawCharges {
			eps := math.Abs(math.Mod(c, 2))
			if eps == 0 || math.IsNaN(eps) {
				continue
			}
			if a.Spend("p", eps) == nil {
				granted += eps
			}
		}
		return math.Abs(a.Spent()-granted) < 1e-9 && a.Spent() <= a.Total()*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitTight(t *testing.T) {
	s, err := SplitTight(1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.RangeEps != 0 || s.AggregateEps != 0.25 {
		t.Errorf("SplitTight = %+v", s)
	}
	if _, err := SplitTight(1, 0); err == nil {
		t.Error("zero dims accepted")
	}
}

func TestSplitLoose(t *testing.T) {
	s, err := SplitLoose(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.RangeEps != 0.25 || s.AggregateEps != 0.25 {
		t.Errorf("SplitLoose = %+v", s)
	}
}

func TestSplitHelper(t *testing.T) {
	s, err := SplitHelper(1.0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.RangeEps != 0.05 || s.AggregateEps != 0.25 {
		t.Errorf("SplitHelper = %+v", s)
	}
	if _, err := SplitHelper(1, -1, 2); err == nil {
		t.Error("negative input dims accepted")
	}
}

// Property: every Theorem-1 split keeps total consumption at or below ε.
func TestSplitsRespectTotalBudgetProperty(t *testing.T) {
	f := func(e float64, kRaw, pRaw uint8) bool {
		eps := math.Abs(math.Mod(e, 10))
		if eps == 0 {
			return true
		}
		k := int(kRaw%16) + 1
		p := int(pRaw%16) + 1

		tight, err := SplitTight(eps, p)
		if err != nil || tight.AggregateEps*float64(p) > eps*(1+1e-9) {
			return false
		}
		loose, err := SplitLoose(eps, p)
		if err != nil || (loose.RangeEps+loose.AggregateEps)*float64(p) > eps*(1+1e-9) {
			return false
		}
		helper, err := SplitHelper(eps, k, p)
		if err != nil {
			return false
		}
		total := helper.RangeEps*float64(k) + helper.AggregateEps*float64(p)
		return total <= eps*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitUniform(t *testing.T) {
	got, err := SplitUniform(2, 4)
	if err != nil || got != 0.5 {
		t.Errorf("SplitUniform = %v, %v", got, err)
	}
	if _, err := SplitUniform(2, 0); err == nil {
		t.Error("n=0 accepted")
	}
}
