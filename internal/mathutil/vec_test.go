package mathutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecClone(t *testing.T) {
	v := Vec{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone aliases original: v = %v", v)
	}
}

func TestVecAddSub(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	if got := v.Add(w); !got.Equal(Vec{5, 7, 9}, 0) {
		t.Errorf("Add = %v, want [5 7 9]", got)
	}
	if got := w.Sub(v); !got.Equal(Vec{3, 3, 3}, 0) {
		t.Errorf("Sub = %v, want [3 3 3]", got)
	}
}

func TestVecAddInPlace(t *testing.T) {
	v := Vec{1, 2}
	v.AddInPlace(Vec{10, 20})
	if !v.Equal(Vec{11, 22}, 0) {
		t.Errorf("AddInPlace = %v", v)
	}
}

func TestVecDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Vec{1}.Add(Vec{1, 2})
}

func TestVecScaleDotNorm(t *testing.T) {
	v := Vec{3, 4}
	if got := v.Scale(2); !got.Equal(Vec{6, 8}, 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(Vec{1, 1}); got != 7 {
		t.Errorf("Dot = %v, want 7", got)
	}
	if got := v.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestVecDist(t *testing.T) {
	v, w := Vec{0, 0}, Vec{3, 4}
	if got := v.Dist(w); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := v.Dist2(w); math.Abs(got-25) > 1e-12 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
}

func TestClampScalar(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{math.NaN(), 0, 10, 0},
		{math.Inf(1), 0, 10, 10},
		{math.Inf(-1), 0, 10, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestVecClamp(t *testing.T) {
	v := Vec{-5, 0.5, 99, math.NaN()}
	got := v.Clamp(0, 1)
	want := Vec{0, 0.5, 1, 0}
	if !got.Equal(want, 0) {
		t.Errorf("Clamp = %v, want %v", got, want)
	}
}

func TestMeanVecs(t *testing.T) {
	got := MeanVecs([]Vec{{0, 2}, {2, 4}})
	if !got.Equal(Vec{1, 3}, 1e-12) {
		t.Errorf("MeanVecs = %v, want [1 3]", got)
	}
}

func TestMeanVecsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty MeanVecs")
		}
	}()
	MeanVecs(nil)
}

// Property: clamping is idempotent and always lands inside the interval.
func TestClampPropertyIdempotent(t *testing.T) {
	f := func(x, a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		c := Clamp(x, lo, hi)
		return c >= lo && c <= hi && Clamp(c, lo, hi) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: v + w - w == v for finite vectors.
func TestVecAddSubProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		v := Vec{a, b}
		w := Vec{c, d}
		if anyNaNInf(v) || anyNaNInf(w) {
			return true
		}
		got := v.Add(w).Sub(w)
		return got.Equal(v, 1e-6*(1+math.Abs(a)+math.Abs(b)+math.Abs(c)+math.Abs(d)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyNaNInf(v Vec) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
			return true
		}
	}
	return false
}

func TestCloneRows(t *testing.T) {
	rows := []Vec{{1, 2}, {}, {3}, {4, 5, 6}}
	got := CloneRows(rows)
	if len(got) != len(rows) {
		t.Fatalf("cloned %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if len(got[i]) != len(rows[i]) {
			t.Fatalf("row %d has %d values, want %d", i, len(got[i]), len(rows[i]))
		}
		for j := range rows[i] {
			if got[i][j] != rows[i][j] {
				t.Errorf("row %d = %v, want %v", i, got[i], rows[i])
			}
			got[i][j] = -1
		}
	}
	if rows[0][0] != 1 || rows[3][2] != 6 {
		t.Fatalf("CloneRows aliases its input: %v", rows)
	}
	// Rows share one backing array, so a row must not be able to grow into
	// the next one.
	got[0] = append(got[0], 99)
	if got[2][0] != -1 {
		t.Fatalf("append to row 0 overwrote row 2: %v", got[2])
	}
	if allocs := testing.AllocsPerRun(50, func() { CloneRows(rows) }); allocs != 2 {
		t.Errorf("CloneRows allocates %.0f times, want 2 (headers + backing)", allocs)
	}
}
