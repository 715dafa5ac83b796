package mathutil

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, matching
// the estimator in the paper's Example 4), or 0 for fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Median returns the median of xs without mutating it, or 0 for an empty
// slice. For even lengths it returns the mean of the two central order
// statistics.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return MedianSorted(s)
}

// MedianSorted is Median for an already-sorted slice; it does not copy.
func MedianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between order statistics, without mutating xs. It returns 0
// for an empty slice and clamps p to [0,1].
func Quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

// QuantileSorted is Quantile for an already-sorted slice; it does not copy.
func QuantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantileSorted(sorted, p)
}

func quantileSorted(s []float64, p float64) float64 {
	p = Clamp(p, 0, 1)
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// RMSE returns the root mean squared error between predictions and truth.
// The slices must have the same nonzero length.
func RMSE(pred, truth []float64) float64 {
	mustSameLen(len(pred), len(truth))
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// MinMax returns the minimum and maximum of xs. It panics on an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("mathutil: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// AbsErr returns |a - b|.
func AbsErr(a, b float64) float64 { return math.Abs(a - b) }

// RelErr returns |a-b| / max(|b|, eps): the relative error of a against the
// reference b, guarded against division by values near zero.
func RelErr(a, b float64) float64 {
	denom := math.Abs(b)
	if denom < 1e-12 {
		denom = 1e-12
	}
	return math.Abs(a-b) / denom
}

// CDF computes the empirical CDF of xs evaluated at each of the (sorted)
// probe points, returning P[X <= probe]. xs is not mutated.
func CDF(xs, probes []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(probes))
	for i, p := range probes {
		out[i] = float64(sort.SearchFloat64s(s, math.Nextafter(p, math.Inf(1)))) / float64(len(s))
	}
	return out
}
