package core

import (
	"errors"
	"fmt"

	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// RangeMode selects how the engine obtains the per-dimension output range
// that calibrates clamping and noise (paper §4.1).
type RangeMode int

const (
	// ModeTight (GUPT-tight): the analyst supplies exact output ranges; the
	// whole budget goes to aggregation.
	ModeTight RangeMode = iota
	// ModeLoose (GUPT-loose): the analyst supplies loose output ranges; the
	// engine privately estimates the 25th–75th percentile of the block
	// outputs inside them and uses that as the effective range.
	ModeLoose
	// ModeHelper (GUPT-helper): the analyst supplies a range-translation
	// function; the engine privately estimates each input dimension's
	// 25th–75th percentile inside the dataset's public input bounds, then
	// translates that tight input range into an output range.
	ModeHelper
)

// String implements fmt.Stringer.
func (m RangeMode) String() string {
	switch m {
	case ModeTight:
		return "GUPT-tight"
	case ModeLoose:
		return "GUPT-loose"
	case ModeHelper:
		return "GUPT-helper"
	default:
		return fmt.Sprintf("RangeMode(%d)", int(m))
	}
}

// ErrRangeSpec is returned when a RangeSpec is inconsistent with its mode.
var ErrRangeSpec = errors.New("core: invalid range specification")

// RangeSpec carries the analyst's range information for one query.
type RangeSpec struct {
	Mode RangeMode
	// Output holds per-output-dimension ranges: exact for ModeTight, loose
	// for ModeLoose. Unused by ModeHelper.
	Output []dp.Range
	// Input holds per-input-dimension public bounds for ModeHelper. If nil
	// the engine falls back to the dataset's registered attribute ranges.
	Input []dp.Range
	// Translate converts a tight input range estimate into output ranges
	// for ModeHelper. It must be a pure function of its argument; it runs
	// on the trusted side and must not inspect data.
	Translate func(input []dp.Range) []dp.Range
	// PercentileLow and PercentileHigh select the inter-percentile pair the
	// private range estimation targets; zero values select the paper's
	// default (0.25, 0.75). Wider pairs (e.g. 0.10, 0.90) suit larger
	// samples (§4.1).
	PercentileLow, PercentileHigh float64
}

// percentilePair resolves the estimation pair with defaults.
func (s RangeSpec) percentilePair() (float64, float64) {
	lo, hi := s.PercentileLow, s.PercentileHigh
	if lo == 0 && hi == 0 {
		return 0.25, 0.75
	}
	return lo, hi
}

// validate checks the spec against the program's dimensions.
func (s RangeSpec) validate(inputDims, outputDims int) error {
	switch s.Mode {
	case ModeTight, ModeLoose:
		if len(s.Output) != outputDims {
			return fmt.Errorf("%w: %s needs %d output ranges, got %d", ErrRangeSpec, s.Mode, outputDims, len(s.Output))
		}
		for i, r := range s.Output {
			if err := r.Validate(); err != nil {
				return fmt.Errorf("%w: output dim %d: %v", ErrRangeSpec, i, err)
			}
		}
	case ModeHelper:
		if s.Translate == nil {
			return fmt.Errorf("%w: %s needs a Translate function", ErrRangeSpec, s.Mode)
		}
		if s.Input != nil && len(s.Input) != inputDims {
			return fmt.Errorf("%w: %s got %d input ranges for %d input dims", ErrRangeSpec, s.Mode, len(s.Input), inputDims)
		}
		for i, r := range s.Input {
			if err := r.Validate(); err != nil {
				return fmt.Errorf("%w: input dim %d: %v", ErrRangeSpec, i, err)
			}
		}
	default:
		return fmt.Errorf("%w: unknown mode %d", ErrRangeSpec, int(s.Mode))
	}
	lo, hi := s.percentilePair()
	if !(lo > 0 && hi < 1 && lo < hi) {
		return fmt.Errorf("%w: percentile pair (%v, %v) must satisfy 0 < lo < hi < 1", ErrRangeSpec, lo, hi)
	}
	return nil
}

// estimateHelperRanges performs GUPT-helper's private input-range tightening:
// for each input dimension, a DP inter-percentile estimate inside the
// public bound, spending rangeEps per dimension, then the analyst's
// translation.
func estimateHelperRanges(rng *mathutil.RNG, rows mathutil.Matrix, spec RangeSpec, input []dp.Range, rangeEps float64, outputDims int) ([]dp.Range, error) {
	pLo, pHi := spec.percentilePair()
	tight := make([]dp.Range, len(input))
	col := make([]float64, rows.Len())
	cells, w := rows.Cells(), rows.Width()
	for d := range input {
		for i := range col {
			col[i] = cells[i*w+d]
		}
		iqr, err := dp.PercentileRange(rng, col, pLo, pHi, input[d], rangeEps)
		if err != nil {
			return nil, fmt.Errorf("core: helper range estimation dim %d: %w", d, err)
		}
		tight[d] = iqr
	}
	out := spec.Translate(tight)
	if len(out) != outputDims {
		return nil, fmt.Errorf("%w: Translate returned %d ranges for %d output dims", ErrRangeSpec, len(out), outputDims)
	}
	for i, r := range out {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("%w: translated output dim %d: %v", ErrRangeSpec, i, err)
		}
	}
	return out, nil
}

// estimateLooseRanges performs GUPT-loose's private output-range tightening:
// a DP interquartile estimate of each output dimension across the block
// outputs, inside the analyst's loose bound. One block output changes when
// one record changes, but with resampling a record touches γ blocks, so the
// percentile mechanism runs at rangeEps/γ per dimension (group privacy) to
// keep the charged rangeEps honest.
func estimateLooseRanges(rng *mathutil.RNG, blockOutputs *blockMatrix, spec RangeSpec, rangeEps float64, gamma int) ([]dp.Range, error) {
	pLo, pHi := spec.percentilePair()
	out := make([]dp.Range, len(spec.Output))
	for d := range spec.Output {
		// The column-major block matrix hands the estimator dimension d's
		// values as one contiguous view — the per-dimension gather copy the
		// row-major layout needed is gone.
		iqr, err := dp.PercentileRange(rng, blockOutputs.col(d), pLo, pHi, spec.Output[d], rangeEps/float64(gamma))
		if err != nil {
			return nil, fmt.Errorf("core: loose range estimation dim %d: %w", d, err)
		}
		out[d] = iqr
	}
	return out, nil
}
