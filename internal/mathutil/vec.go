// Package mathutil provides the small numeric substrate shared by the rest
// of GUPT: dense vector arithmetic, summary statistics, quantiles and a
// deterministic, splittable random number source.
//
// Everything here is ordinary floating-point math; nothing in this package
// is privacy-aware. The differential-privacy mechanisms built on top of it
// live in internal/dp.
package mathutil

import (
	"fmt"
	"math"
)

// Vec is a dense vector of float64 values.
type Vec []float64

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// CloneRows returns a deep copy of rows laid out flat: one header slice and
// one contiguous backing array, two allocations however many rows there
// are. Each copied row's capacity is cut to its length, so appending to one
// row reallocates it instead of running into its neighbour.
func CloneRows(rows []Vec) []Vec {
	return new(RowBuf).CopyRows(rows)
}

// Add returns v + w. It panics if the lengths differ; mismatched dimensions
// are a programming error, not a data error.
func (v Vec) Add(w Vec) Vec {
	mustSameLen(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// AddInPlace adds w into v element-wise.
func (v Vec) AddInPlace(w Vec) {
	mustSameLen(len(v), len(w))
	for i := range v {
		v[i] += w[i]
	}
}

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec {
	mustSameLen(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns v multiplied by the scalar c.
func (v Vec) Scale(c float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] * c
	}
	return out
}

// ScaleInPlace multiplies v by the scalar c.
func (v Vec) ScaleInPlace(c float64) {
	for i := range v {
		v[i] *= c
	}
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	mustSameLen(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 {
	return math.Sqrt(v.Dot(v))
}

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec) Dist2(w Vec) float64 {
	mustSameLen(len(v), len(w))
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 {
	return math.Sqrt(v.Dist2(w))
}

// Equal reports whether v and w have the same length and every component
// differs by at most tol.
func (v Vec) Equal(w Vec, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Clamp returns a copy of v with every component restricted to [lo, hi].
func (v Vec) Clamp(lo, hi float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = Clamp(v[i], lo, hi)
	}
	return out
}

// SumClamped returns the sum of Clamp(x, lo, hi) over xs, accumulating in
// index order so the result is bit-identical to the scalar clamp-then-add
// loop it replaces. One pass over a contiguous slice with no allocation:
// this is the engine's hot clamp+accumulate over a block-output column.
func SumClamped(xs []float64, lo, hi float64) float64 {
	var sum float64
	for _, x := range xs {
		// Inlined Clamp, branch order identical to Clamp below.
		switch {
		case math.IsNaN(x):
			x = lo
		case x < lo:
			x = lo
		case x > hi:
			x = hi
		}
		sum += x
	}
	return sum
}

// Clamp restricts x to the closed interval [lo, hi]. NaN inputs are mapped
// to lo so that a misbehaving computation can never smuggle NaN through an
// aggregation.
func Clamp(x, lo, hi float64) float64 {
	if math.IsNaN(x) {
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// MeanVecs returns the element-wise mean of the given vectors, which must
// all share one length. It panics on an empty input.
func MeanVecs(vs []Vec) Vec {
	if len(vs) == 0 {
		panic("mathutil: MeanVecs of empty slice")
	}
	out := make(Vec, len(vs[0]))
	for _, v := range vs {
		out.AddInPlace(v)
	}
	out.ScaleInPlace(1 / float64(len(vs)))
	return out
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("mathutil: dimension mismatch %d != %d", a, b))
	}
}
