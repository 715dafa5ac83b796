// Package dataset implements GUPT's dataset manager: an in-memory table
// model for multi-dimensional real-valued records, CSV import/export, a
// concurrency-safe registry that owns each dataset's cumulative privacy
// budget, and the aging-of-sensitivity model (paper §3.3) that exposes an
// aged, no-longer-sensitive sample of each dataset for parameter tuning.
package dataset

import (
	"errors"
	"fmt"

	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// ErrDimensionMismatch is returned when a row's width differs from the
// table's.
var ErrDimensionMismatch = errors.New("dataset: row dimension mismatch")

// Table is an immutable-after-build collection of k-dimensional real-valued
// records, the unit of data that GUPT computations run against. A table may
// carry optional column names and per-column attribute ranges supplied by
// the data owner. Once registered, its rows are shared read-only by every
// concurrent query (View); only copies ever reach an analysis program.
type Table struct {
	cols   []string
	rows   []mathutil.Vec
	ranges []dp.Range // nil if the owner supplied no attribute ranges
}

// New creates a table with the given column names. Rows are added with
// Append. A nil or empty cols is allowed for anonymous columns once the
// first row fixes the dimensionality.
func New(cols []string) *Table {
	return &Table{cols: append([]string(nil), cols...)}
}

// FromRows builds a table directly from rows, which must be non-empty and
// rectangular. The rows are copied.
func FromRows(cols []string, rows []mathutil.Vec) (*Table, error) {
	t := New(cols)
	for i, r := range rows {
		if err := t.Append(r); err != nil {
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
	if len(t.rows) > 0 && len(row) != len(t.rows[0]) {
		return fmt.Errorf("%w: row has %d values, table rows have %d", ErrDimensionMismatch, len(row), len(t.rows[0]))
	}
	t.rows = append(t.rows, row.Clone())
	return nil
}

// NumRows returns the number of records.
func (t *Table) NumRows() int { return len(t.rows) }

// Dims returns the record dimensionality, or 0 for an empty table with no
// declared columns.
func (t *Table) Dims() int {
	if len(t.rows) > 0 {
		return len(t.rows[0])
	}
	return len(t.cols)
}

// Columns returns a copy of the column names (possibly empty).
func (t *Table) Columns() []string { return append([]string(nil), t.cols...) }

// Row returns a copy of record i.
func (t *Table) Row(i int) mathutil.Vec { return t.rows[i].Clone() }

// Rows returns a deep copy of all records, which the caller owns. The
// query pipeline does not use it: the engine reads the shared View and the
// chamber makes the one private copy per block.
func (t *Table) Rows() []mathutil.Vec { return mathutil.CloneRows(t.rows) }

// View returns the table's records without copying them. The result is
// shared with every other reader and must be treated as read-only — rows
// and row headers alike. It exists for the trusted engine, which reads it
// to partition and hands untrusted programs a private copy of each block
// in recycled storage (the state-attack defense; sandbox.InProcess has the
// rules); nothing outside the trusted side may see it.
func (t *Table) View() []mathutil.Vec { return t.rows }

// Column returns a copy of column j across all records.
func (t *Table) Column(j int) []float64 {
	out := make([]float64, len(t.rows))
	for i, r := range t.rows {
		out[i] = r[j]
	}
	return out
}

// Subset returns a new table containing copies of the records at the given
// indices, in order. Indices must be valid.
func (t *Table) Subset(indices []int) *Table {
	sub := New(t.cols)
	sub.ranges = append([]dp.Range(nil), t.ranges...)
	for _, i := range indices {
		sub.rows = append(sub.rows, t.rows[i].Clone())
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
	n := len(t.rows)
	cut := int(frac * float64(n))
	perm := rng.Perm(n)
	return t.Subset(perm[:cut]), t.Subset(perm[cut:])
}
