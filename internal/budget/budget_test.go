package budget

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

func TestDistributeProportional(t *testing.T) {
	// Example 4: average has zeta 1, variance has zeta max; allocating
	// 1:max equalizes their noise.
	got, err := Distribute(1.0, []float64{1, 150})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1.0/151) > 1e-12 || math.Abs(got[1]-150.0/151) > 1e-12 {
		t.Errorf("Distribute = %v", got)
	}
	// Equal zetas split evenly.
	even, err := Distribute(2.0, []float64{3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range even {
		if math.Abs(e-0.5) > 1e-12 {
			t.Errorf("even split = %v", even)
		}
	}
}

// Property: allocations are positive, sum to the total, and equalize the
// per-query noise std (zeta_i / eps_i constant).
func TestDistributeProperty(t *testing.T) {
	f := func(totalRaw float64, zetasRaw []float64) bool {
		total := math.Abs(math.Mod(totalRaw, 10)) + 0.1
		zetas := make([]float64, 0, len(zetasRaw))
		for _, z := range zetasRaw {
			zz := math.Abs(math.Mod(z, 100)) + 0.01
			zetas = append(zetas, zz)
		}
		if len(zetas) == 0 {
			return true
		}
		out, err := Distribute(total, zetas)
		if err != nil {
			return false
		}
		var sum float64
		ratio := zetas[0] / out[0]
		for i, e := range out {
			if e <= 0 {
				return false
			}
			sum += e
			if math.Abs(zetas[i]/e-ratio) > 1e-6*ratio {
				return false
			}
		}
		return math.Abs(sum-total) < 1e-9*total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributeValidation(t *testing.T) {
	if _, err := Distribute(0, []float64{1}); err == nil {
		t.Error("zero total accepted")
	}
	if _, err := Distribute(1, nil); err == nil {
		t.Error("no queries accepted")
	}
	if _, err := Distribute(1, []float64{1, 0}); err == nil {
		t.Error("zero zeta accepted")
	}
	if _, err := Distribute(1, []float64{1, -2}); err == nil {
		t.Error("negative zeta accepted")
	}
	if _, err := Distribute(1, []float64{math.NaN()}); err == nil {
		t.Error("NaN zeta accepted")
	}
}

func TestZeta(t *testing.T) {
	z, err := Zeta([]dp.Range{{Lo: 0, Hi: 150}}, 60, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-150.0*60/30000) > 1e-12 {
		t.Errorf("Zeta = %v", z)
	}
	// Multi-dim widths add.
	z2, err := Zeta([]dp.Range{{Lo: 0, Hi: 10}, {Lo: 0, Hi: 20}}, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z2-3) > 1e-12 {
		t.Errorf("multi-dim Zeta = %v", z2)
	}
	if _, err := Zeta(nil, 10, 100); err == nil {
		t.Error("no ranges accepted")
	}
	if _, err := Zeta([]dp.Range{{Lo: 0, Hi: 1}}, 0, 100); err == nil {
		t.Error("blockSize=0 accepted")
	}
	if _, err := Zeta([]dp.Range{{Lo: 0, Hi: 1}}, 200, 100); err == nil {
		t.Error("blockSize>n accepted")
	}
	if _, err := Zeta([]dp.Range{{Lo: 5, Hi: 5}}, 10, 100); err == nil {
		t.Error("zero-width range accepted")
	}
}

func managerFixture(t *testing.T, totalBudget float64, agedFrac float64) (*Manager, string) {
	t.Helper()
	rng := mathutil.NewRNG(1)
	tbl := dataset.New([]string{"v"})
	for i := 0; i < 2000; i++ {
		if err := tbl.Append(mathutil.Vec{mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150)}); err != nil {
			t.Fatal(err)
		}
	}
	reg := dataset.NewRegistry()
	if _, err := reg.Register("d", tbl, dataset.RegisterOptions{
		TotalBudget: totalBudget, AgedFraction: agedFrac, Seed: 9,
	}); err != nil {
		t.Fatal(err)
	}
	return NewManager(reg), "d"
}

func TestManagerCharge(t *testing.T) {
	m, name := managerFixture(t, 1.0, 0)
	if err := m.Charge(name, "q1", 0.7); err != nil {
		t.Fatal(err)
	}
	rem, err := m.Remaining(name)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-0.3) > 1e-9 {
		t.Errorf("Remaining = %v", rem)
	}
	if err := m.Charge(name, "q2", 0.5); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Errorf("overspend err = %v", err)
	}
	if err := m.Charge("missing", "q", 0.1); !errors.Is(err, dataset.ErrNotFound) {
		t.Errorf("unknown dataset err = %v", err)
	}
	if _, err := m.Remaining("missing"); !errors.Is(err, dataset.ErrNotFound) {
		t.Errorf("unknown dataset err = %v", err)
	}
}
