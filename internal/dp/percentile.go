package dp

import (
	"fmt"
	"math"
	"sort"

	"gupt/internal/mathutil"
)

// Percentile computes an ε-differentially private estimate of the p-th
// percentile (p in (0,1)) of xs, which are first clamped to the public range
// r. This is the exponential-mechanism quantile estimator of Smith
// (STOC '11) that GUPT uses for its output-range estimation (paper §4.1):
//
//	sort and clamp the data, bracket it with the public endpoints, and
//	sample the gap between consecutive order statistics with probability
//	proportional to gapLength · exp(-ε·|gapRank − p·n| / 2),
//
// then return a uniform draw from the chosen gap. The rank utility has
// sensitivity 1, so the release is ε-DP.
func Percentile(rng *mathutil.RNG, xs []float64, p float64, r Range, eps float64) (float64, error) {
	if err := checkEpsilon(eps); err != nil {
		return 0, err
	}
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("dp: percentile p must be in (0,1), got %v", p)
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("dp: percentile of empty data")
	}

	n := len(xs)
	// z has n+2 entries: the public lower bound, the clamped sorted data,
	// and the public upper bound. Gap i is [z[i], z[i+1]] for i in 0..n.
	z := make([]float64, 0, n+2)
	z = append(z, r.Lo)
	for _, x := range xs {
		z = append(z, r.Clamp(x))
	}
	sort.Float64s(z[1:])
	z = append(z, r.Hi)

	target := p * float64(n)
	logits := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		gap := z[i+1] - z[i]
		if gap <= 0 {
			logits[i] = math.Inf(-1)
			continue
		}
		logits[i] = math.Log(gap) - eps*math.Abs(float64(i)-target)/2
	}
	// All gaps empty means every point (and the bounds) coincide; the only
	// possible answer is that single value.
	allEmpty := true
	for _, l := range logits {
		if !math.IsInf(l, -1) {
			allEmpty = false
			break
		}
	}
	if allEmpty {
		return r.Lo, nil
	}

	idx := rng.GumbelCategorical(logits)
	lo, hi := z[idx], z[idx+1]
	return lo + rng.Float64()*(hi-lo), nil
}

// PercentileRange privately estimates the [pLo-th, pHi-th] percentile
// interval of xs within the public range r, spending eps/2 on each endpoint
// (total ε). This is the range-estimation subroutine used by GUPT-loose and
// GUPT-helper; the paper's default pair is (0.25, 0.75), with wider pairs
// (e.g. 0.10, 0.90) appropriate when there are more samples (§4.1). If
// noise inverts the endpoints they are swapped, and the result is always a
// sub-interval of r.
func PercentileRange(rng *mathutil.RNG, xs []float64, pLo, pHi float64, r Range, eps float64) (Range, error) {
	if err := checkEpsilon(eps); err != nil {
		return Range{}, err
	}
	if !(pLo < pHi) {
		return Range{}, fmt.Errorf("dp: percentile pair (%v, %v) must be increasing", pLo, pHi)
	}
	lo, err := Percentile(rng, xs, pLo, r, eps/2)
	if err != nil {
		return Range{}, err
	}
	hi, err := Percentile(rng, xs, pHi, r, eps/2)
	if err != nil {
		return Range{}, err
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return Range{Lo: lo, Hi: hi}, nil
}
