package dp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gupt/internal/mathutil"
)

func TestNewRange(t *testing.T) {
	if _, err := NewRange(0, 10); err != nil {
		t.Errorf("valid range rejected: %v", err)
	}
	if _, err := NewRange(10, 0); !errors.Is(err, ErrInvalidRange) {
		t.Errorf("inverted range accepted, err=%v", err)
	}
	if _, err := NewRange(math.NaN(), 1); !errors.Is(err, ErrInvalidRange) {
		t.Errorf("NaN range accepted, err=%v", err)
	}
	if _, err := NewRange(0, math.Inf(1)); !errors.Is(err, ErrInvalidRange) {
		t.Errorf("infinite range accepted, err=%v", err)
	}
	if _, err := NewRange(5, 5); err != nil {
		t.Errorf("degenerate range rejected: %v", err)
	}
}

func TestRangeOps(t *testing.T) {
	r := Range{Lo: -2, Hi: 6}
	if r.Width() != 8 {
		t.Errorf("Width = %v, want 8", r.Width())
	}
	if r.Mid() != 2 {
		t.Errorf("Mid = %v, want 2", r.Mid())
	}
	if r.Clamp(100) != 6 || r.Clamp(-100) != -2 || r.Clamp(0) != 0 {
		t.Error("Clamp misbehaves")
	}
	if !r.Contains(6) || !r.Contains(-2) || r.Contains(6.1) {
		t.Error("Contains misbehaves")
	}
	s := r.Scale(-1)
	if s.Lo != -6 || s.Hi != 2 {
		t.Errorf("Scale(-1) = %+v, want [-6, 2]", s)
	}
}

func TestLaplaceRejectsBadParams(t *testing.T) {
	g := mathutil.NewRNG(1)
	if _, err := Laplace(g, 0, 1, 0); !errors.Is(err, ErrInvalidEpsilon) {
		t.Errorf("eps=0 accepted, err=%v", err)
	}
	if _, err := Laplace(g, 0, 1, -2); !errors.Is(err, ErrInvalidEpsilon) {
		t.Errorf("eps<0 accepted, err=%v", err)
	}
	if _, err := Laplace(g, 0, 1, math.Inf(1)); !errors.Is(err, ErrInvalidEpsilon) {
		t.Errorf("eps=inf accepted, err=%v", err)
	}
	if _, err := Laplace(g, 0, -1, 1); err == nil {
		t.Error("negative sensitivity accepted")
	}
	if _, err := Laplace(g, 0, math.NaN(), 1); err == nil {
		t.Error("NaN sensitivity accepted")
	}
}

func TestLaplaceUnbiasedWithCorrectScale(t *testing.T) {
	g := mathutil.NewRNG(17)
	const n = 100000
	const value, sens, eps = 10.0, 2.0, 0.5
	xs := make([]float64, n)
	for i := range xs {
		x, err := Laplace(g, value, sens, eps)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = x
	}
	if m := mathutil.Mean(xs); math.Abs(m-value) > 0.1 {
		t.Errorf("mean = %v, want ~%v", m, value)
	}
	// Var = 2(sens/eps)^2 = 32.
	if v := mathutil.Variance(xs); math.Abs(v-32) > 2 {
		t.Errorf("variance = %v, want ~32", v)
	}
}

func TestLaplaceZeroSensitivityIsExact(t *testing.T) {
	g := mathutil.NewRNG(3)
	got, err := Laplace(g, 7, 0, 1)
	if err != nil || got != 7 {
		t.Errorf("Laplace(sens=0) = %v, %v; want exactly 7", got, err)
	}
}

func TestLaplaceVec(t *testing.T) {
	g := mathutil.NewRNG(5)
	v := mathutil.Vec{1, 2, 3}
	out, err := LaplaceVec(g, v, []float64{0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(v, 0) {
		t.Errorf("zero-sensitivity LaplaceVec changed values: %v", out)
	}
	if _, err := LaplaceVec(g, v, []float64{1}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LaplaceVec(g, v, []float64{1, -1, 1}, 1); err == nil {
		t.Error("negative sensitivity accepted")
	}
}

func TestNoisyCountSumAvg(t *testing.T) {
	g := mathutil.NewRNG(23)
	// With a huge epsilon, noise is negligible: check the underlying values.
	c, err := NoisyCount(g, 42, 1e9)
	if err != nil || math.Abs(c-42) > 0.01 {
		t.Errorf("NoisyCount = %v, %v", c, err)
	}
	xs := []float64{1, 2, 3, 100} // 100 clamps to 10
	r := Range{Lo: 0, Hi: 10}
	s, err := NoisySum(g, xs, r, 1e9)
	if err != nil || math.Abs(s-16) > 0.01 {
		t.Errorf("NoisySum = %v, %v, want ~16", s, err)
	}
	a, err := NoisyAvg(g, xs, r, 1e9)
	if err != nil || math.Abs(a-4) > 0.01 {
		t.Errorf("NoisyAvg = %v, %v, want ~4", a, err)
	}
	if _, err := NoisyAvg(g, nil, r, 1); err == nil {
		t.Error("NoisyAvg of empty slice accepted")
	}
	if _, err := NoisySum(g, xs, Range{Lo: 1, Hi: 0}, 1); err == nil {
		t.Error("NoisySum with inverted range accepted")
	}
}

func TestPercentileBasicAccuracy(t *testing.T) {
	g := mathutil.NewRNG(37)
	xs := make([]float64, 2001)
	for i := range xs {
		xs[i] = float64(i) // 0..2000, so p-quantile ~ 2000p
	}
	r := Range{Lo: 0, Hi: 2000}
	for _, p := range []float64{0.25, 0.5, 0.75} {
		got, err := Percentile(g, xs, p, r, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		want := 2000 * p
		if math.Abs(got-want) > 50 {
			t.Errorf("Percentile(%v) = %v, want ~%v", p, got, want)
		}
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	g := mathutil.NewRNG(41)
	f := func(raw []float64, seed int64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		r := Range{Lo: -100, Hi: 100}
		got, err := Percentile(g, xs, 0.5, r, 0.1)
		if err != nil {
			return false
		}
		return r.Contains(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileDegenerateData(t *testing.T) {
	g := mathutil.NewRNG(43)
	// All data identical and equal to both bounds: the only answer is that value.
	got, err := Percentile(g, []float64{5, 5, 5}, 0.5, Range{Lo: 5, Hi: 5}, 1)
	if err != nil || got != 5 {
		t.Errorf("degenerate percentile = %v, %v; want 5", got, err)
	}
	if _, err := Percentile(g, nil, 0.5, Range{Lo: 0, Hi: 1}, 1); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Percentile(g, []float64{1}, 0, Range{Lo: 0, Hi: 1}, 1); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Percentile(g, []float64{1}, 1, Range{Lo: 0, Hi: 1}, 1); err == nil {
		t.Error("p=1 accepted")
	}
}
