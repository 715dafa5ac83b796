// Package dataset implements GUPT's dataset manager: an in-memory table
// model for multi-dimensional real-valued records, CSV import/export, a
// concurrency-safe registry that owns each dataset's cumulative privacy
// budget, and the aging-of-sensitivity model (paper §3.3) that exposes an
// aged, no-longer-sensitive sample of each dataset for parameter tuning.
package dataset

import (
	"errors"
	"fmt"
	"slices"

	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// ErrDimensionMismatch is returned when a row's width differs from the
// table's.
var ErrDimensionMismatch = errors.New("dataset: row dimension mismatch")

// Table is an immutable-after-build collection of k-dimensional real-valued
// records, the unit of data that GUPT computations run against. A table may
// carry optional column names and per-column attribute ranges supplied by
// the data owner. Its records are one row-major array of fixed width, the
// trusted side's only copy: once registered it is shared read-only by every
// concurrent query (Matrix), and only copies ever reach an analysis program.
type Table struct {
	cols  []string
	cells []float64 // n rows of w cells, row-major
	n, w  int
	// grow is the row count Grow reserved before the first row fixed the
	// width of a table without column names.
	grow   int
	ranges []dp.Range // nil if the owner supplied no attribute ranges
}

// New creates a table with the given column names. Rows are added with
// Append. A nil or empty cols is allowed for anonymous columns once the
// first row fixes the dimensionality.
func New(cols []string) *Table {
	return &Table{cols: append([]string(nil), cols...), w: len(cols)}
}

// FromRows builds a table directly from rows, which must be rectangular.
// The rows are copied. A row that does not fit fails as "row i: …".
func FromRows[R ~[]float64](cols []string, rows []R) (*Table, error) {
	t := New(cols)
	t.Grow(len(rows))
	for i, r := range rows {
		if err := t.Append(mathutil.Vec(r)); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return t, nil
}

// Append adds a copy of row to the table. All rows must share one width,
// and if column names were supplied the width must match them.
func (t *Table) Append(row mathutil.Vec) error {
	if len(t.cols) > 0 && len(row) != len(t.cols) {
		return fmt.Errorf("%w: row has %d values, table has %d columns", ErrDimensionMismatch, len(row), len(t.cols))
	}
	if t.n > 0 && len(row) != t.w {
		return fmt.Errorf("%w: row has %d values, table rows have %d", ErrDimensionMismatch, len(row), t.w)
	}
	if t.n == 0 && len(t.cols) == 0 {
		t.w = len(row)
		t.cells = slices.Grow(t.cells, t.grow*t.w)
	}
	t.cells = append(t.cells, row...)
	t.n++
	return nil
}

// Grow makes room for n more rows, so that the next n Appends do not
// reallocate the cells. A builder that knows its row count calls it first:
// growing a 20,000-row table one Append at a time allocates about twice its
// final size. Before the first row of a table without column names the
// width is unknown, and the reservation is made when that row fixes it.
func (t *Table) Grow(n int) {
	if t.n == 0 && len(t.cols) == 0 {
		t.grow = n
		return
	}
	t.cells = slices.Grow(t.cells, n*t.w)
}

// NumRows returns the number of records.
func (t *Table) NumRows() int { return t.n }

// Dims returns the record dimensionality, or 0 for an empty table with no
// declared columns.
func (t *Table) Dims() int { return t.w }

// Columns returns a copy of the column names (possibly empty).
func (t *Table) Columns() []string { return append([]string(nil), t.cols...) }

// Row returns a copy of record i.
func (t *Table) Row(i int) mathutil.Vec { return t.Matrix().Row(i).Clone() }

// Rows returns a deep copy of all records, which the caller owns. The
// query pipeline does not use it: the engine reads the shared Matrix and the
// chamber makes the one private copy per block.
func (t *Table) Rows() []mathutil.Vec { return t.Matrix().Clone().Rows() }

// Matrix returns the table's records without copying them. The result is
// shared with every other reader and must be treated as read-only. It
// exists for the trusted engine, which reads it to partition and hands
// untrusted programs a private copy of each block in recycled storage (the
// state-attack defense; sandbox.InProcess has the rules); nothing outside
// the trusted side may see it.
func (t *Table) Matrix() mathutil.Matrix {
	return mathutil.NewMatrix(t.cells[:t.n*t.w], t.n, t.w)
}

// View returns one header per record over the shared cells, with the same
// rules as Matrix: no cell is copied, and nothing outside the trusted side
// may see the result. It allocates the headers on every call.
func (t *Table) View() []mathutil.Vec { return t.Matrix().Rows() }

// Column returns a copy of column j across all records.
func (t *Table) Column(j int) []float64 {
	out := make([]float64, t.n)
	for i := range out {
		out[i] = t.cells[i*t.w : (i+1)*t.w][j]
	}
	return out
}

// Subset returns a new table containing copies of the records at the given
// indices, in order. Indices must be valid.
func (t *Table) Subset(indices []int) *Table {
	sub := New(t.cols)
	sub.ranges = append([]dp.Range(nil), t.ranges...)
	sub.w, sub.n = t.w, len(indices)
	sub.cells = make([]float64, 0, len(indices)*t.w)
	for _, i := range indices {
		sub.cells = append(sub.cells, t.cells[i*t.w:(i+1)*t.w]...)
	}
	return sub
}

// SetRanges attaches per-column attribute ranges (the data owner's public
// input bounds). The slice length must equal the table dimensionality.
func (t *Table) SetRanges(ranges []dp.Range) error {
	if len(ranges) != t.Dims() {
		return fmt.Errorf("dataset: %d ranges for %d columns", len(ranges), t.Dims())
	}
	for i, r := range ranges {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("column %d: %w", i, err)
		}
	}
	t.ranges = append([]dp.Range(nil), ranges...)
	return nil
}

// Ranges returns a copy of the attribute ranges, or nil if none were set.
func (t *Table) Ranges() []dp.Range {
	if t.ranges == nil {
		return nil
	}
	return append([]dp.Range(nil), t.ranges...)
}

// Split deterministically partitions the table's records into two new
// tables: the first receives frac of the rows (rounded down), chosen
// uniformly at random from rng, and the second receives the rest. GUPT uses
// this for the aging model: the first part plays the aged, non-private
// sample.
func (t *Table) Split(rng *mathutil.RNG, frac float64) (*Table, *Table) {
	frac = mathutil.Clamp(frac, 0, 1)
	n := t.n
	cut := int(frac * float64(n))
	perm := rng.Perm(n)
	return t.Subset(perm[:cut]), t.Subset(perm[cut:])
}
