// Package analytics implements the data-analysis programs used as the
// untrusted black boxes in GUPT's evaluation: summary statistics (mean,
// median, variance, percentile), k-means clustering and logistic
// regression. GUPT itself never looks inside these — it only needs the
// Program contract below — but shipping them in-repo gives the examples,
// tests and experiment harness realistic workloads, and cmd/gupt-app wraps
// each one as a standalone executable for subprocess isolation.
package analytics

import (
	"errors"
	"fmt"
	"sort"

	"gupt/internal/mathutil"
)

// ErrEmptyBlock is returned when a program is run on a block with no rows.
var ErrEmptyBlock = errors.New("analytics: empty block")

// Program is GUPT's contract with an analysis program: a black box that maps
// any subset of the dataset's records to a fixed-dimensional real vector
// (paper §3.1: "it should be able to run on any subset of the original
// dataset"). Run must not retain or mutate the block; under subprocess
// isolation it physically cannot.
type Program interface {
	// Name identifies the program in logs and budget charges.
	Name() string
	// OutputDims is the (fixed, public) dimensionality of the output. GUPT
	// needs it up front to split the privacy budget across dimensions
	// (paper §8.1: output dimension must be known in advance).
	OutputDims() int
	// Run computes the program on one block of records.
	Run(block []mathutil.Vec) (mathutil.Vec, error)
}

// Func adapts a plain function to the Program interface.
type Func struct {
	ProgName string
	Dims     int
	F        func(block []mathutil.Vec) (mathutil.Vec, error)
}

// Name implements Program.
func (f Func) Name() string { return f.ProgName }

// OutputDims implements Program.
func (f Func) OutputDims() int { return f.Dims }

// Run implements Program.
func (f Func) Run(block []mathutil.Vec) (mathutil.Vec, error) { return f.F(block) }

func checkBlock(block []mathutil.Vec, col int) error {
	if len(block) == 0 {
		return ErrEmptyBlock
	}
	if col < 0 || col >= len(block[0]) {
		return fmt.Errorf("analytics: column %d out of range for %d-dim rows", col, len(block[0]))
	}
	return nil
}

func column(block []mathutil.Vec, col int) []float64 {
	out := make([]float64, len(block))
	for i, r := range block {
		out[i] = r[col]
	}
	return out
}

// sortedColumn is column in ascending order: the copy column makes is the
// one sorted, so order statistics cost one copy of the column, not two.
func sortedColumn(block []mathutil.Vec, col int) []float64 {
	out := column(block, col)
	sort.Float64s(out)
	return out
}

// Mean computes the mean of one column.
type Mean struct{ Col int }

// Name implements Program.
func (m Mean) Name() string { return fmt.Sprintf("mean(col=%d)", m.Col) }

// OutputDims implements Program.
func (Mean) OutputDims() int { return 1 }

// Run implements Program.
func (m Mean) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	if err := checkBlock(block, m.Col); err != nil {
		return nil, err
	}
	// Summed in block order straight off the rows — the order (and so the
	// bits) mathutil.Mean over a copied column would give, without the copy.
	var sum float64
	for _, r := range block {
		sum += r[m.Col]
	}
	return mathutil.Vec{sum / float64(len(block))}, nil
}

// Median computes the median of one column.
type Median struct{ Col int }

// Name implements Program.
func (m Median) Name() string { return fmt.Sprintf("median(col=%d)", m.Col) }

// OutputDims implements Program.
func (Median) OutputDims() int { return 1 }

// Run implements Program.
func (m Median) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	if err := checkBlock(block, m.Col); err != nil {
		return nil, err
	}
	return mathutil.Vec{mathutil.MedianSorted(sortedColumn(block, m.Col))}, nil
}

// Variance computes the population variance of one column (Example 4 in the
// paper).
type Variance struct{ Col int }

// Name implements Program.
func (v Variance) Name() string { return fmt.Sprintf("variance(col=%d)", v.Col) }

// OutputDims implements Program.
func (Variance) OutputDims() int { return 1 }

// Run implements Program.
func (v Variance) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	if err := checkBlock(block, v.Col); err != nil {
		return nil, err
	}
	return mathutil.Vec{mathutil.Variance(column(block, v.Col))}, nil
}

// Percentile computes the p-quantile (P in [0,1]) of one column.
type Percentile struct {
	Col int
	P   float64
}

// Name implements Program.
func (p Percentile) Name() string { return fmt.Sprintf("percentile(col=%d,p=%g)", p.Col, p.P) }

// OutputDims implements Program.
func (Percentile) OutputDims() int { return 1 }

// Run implements Program.
func (p Percentile) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	if err := checkBlock(block, p.Col); err != nil {
		return nil, err
	}
	return mathutil.Vec{mathutil.QuantileSorted(sortedColumn(block, p.Col), p.P)}, nil
}
