// Package dp implements the differential-privacy primitives GUPT is built
// from: the Laplace mechanism, the exponential-mechanism percentile
// estimator of Smith (STOC '11) used by GUPT's output-range estimation, a
// sequential-composition privacy accountant, and the per-dimension budget
// splits of the paper's Theorem 1.
//
// Conventions. Privacy parameters are the standard ε of pure
// ε-differential privacy (Definition 1 in the paper). All mechanisms take an
// explicit *mathutil.RNG so experiments are reproducible; none of them read
// global randomness.
package dp

import (
	"errors"
	"fmt"
	"math"

	"gupt/internal/mathutil"
)

// ErrInvalidEpsilon is returned when a mechanism is invoked with a
// non-positive or non-finite privacy parameter.
var ErrInvalidEpsilon = errors.New("dp: epsilon must be positive and finite")

// ErrInvalidRange is returned when an output or input range [Lo, Hi] is
// empty, inverted, or non-finite.
var ErrInvalidRange = errors.New("dp: invalid range")

// Range is a closed interval [Lo, Hi] bounding a scalar quantity. GUPT uses
// ranges both for dataset attributes (input ranges supplied by the data
// owner) and for per-dimension program outputs (supplied by the analyst or
// estimated privately).
type Range struct {
	Lo, Hi float64
}

// NewRange returns the range [lo, hi], validating lo <= hi and finiteness.
func NewRange(lo, hi float64) (Range, error) {
	r := Range{Lo: lo, Hi: hi}
	if err := r.Validate(); err != nil {
		return Range{}, err
	}
	return r, nil
}

// Validate reports whether the range is a well-formed, finite, non-inverted
// interval.
func (r Range) Validate() error {
	if math.IsNaN(r.Lo) || math.IsNaN(r.Hi) || math.IsInf(r.Lo, 0) || math.IsInf(r.Hi, 0) {
		return fmt.Errorf("%w: [%v, %v] is not finite", ErrInvalidRange, r.Lo, r.Hi)
	}
	if r.Lo > r.Hi {
		return fmt.Errorf("%w: lo %v > hi %v", ErrInvalidRange, r.Lo, r.Hi)
	}
	return nil
}

// Width returns Hi - Lo.
func (r Range) Width() float64 { return r.Hi - r.Lo }

// Clamp restricts x to the range. NaN maps to Lo (see mathutil.Clamp).
func (r Range) Clamp(x float64) float64 { return mathutil.Clamp(x, r.Lo, r.Hi) }

// Contains reports whether x lies in [Lo, Hi].
func (r Range) Contains(x float64) bool { return x >= r.Lo && x <= r.Hi }

// Mid returns the midpoint of the range, used as the data-independent
// substitute output when a timing-attack defense kills a computation.
func (r Range) Mid() float64 { return (r.Lo + r.Hi) / 2 }

// Scale multiplies both endpoints by c, preserving orientation.
func (r Range) Scale(c float64) Range {
	lo, hi := r.Lo*c, r.Hi*c
	if lo > hi {
		lo, hi = hi, lo
	}
	return Range{Lo: lo, Hi: hi}
}

func checkEpsilon(eps float64) error {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return fmt.Errorf("%w: got %v", ErrInvalidEpsilon, eps)
	}
	return nil
}
