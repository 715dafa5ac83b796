package mathutil

import "fmt"

// Matrix is n rows of w float64 cells each, held row-major in one array:
// row i is the w cells from i*w. A registered table is one Matrix, so the
// engine reads a block's rows by stride, with no per-row header or
// allocation between it and the cells, and every row has the same width by
// construction. A Matrix is a value over shared storage: copying it copies
// the view, not the cells.
type Matrix struct {
	cells []float64
	n, w  int
}

// NewMatrix returns the matrix of n rows of w cells held in cells, which it
// aliases. It panics unless len(cells) == n*w: a mismatch is a programming
// error, not a data error.
func NewMatrix(cells []float64, n, w int) Matrix {
	if n < 0 || w < 0 || len(cells) != n*w {
		panic(fmt.Sprintf("mathutil: %d cells for %d rows of %d", len(cells), n, w))
	}
	return Matrix{cells: cells[:len(cells):len(cells)], n: n, w: w}
}

// FlattenRows copies rows into a new Matrix. Every row must have the width
// of the first; the error names the first one that does not.
func FlattenRows(rows []Vec) (Matrix, error) {
	w := 0
	if len(rows) > 0 {
		w = len(rows[0])
	}
	cells := make([]float64, 0, len(rows)*w)
	for i, r := range rows {
		if len(r) != w {
			return Matrix{}, fmt.Errorf("mathutil: row %d has %d values, row 0 has %d", i, len(r), w)
		}
		cells = append(cells, r...)
	}
	return NewMatrix(cells, len(rows), w), nil
}

// Len returns the number of rows.
func (m Matrix) Len() int { return m.n }

// Width returns the number of cells in every row.
func (m Matrix) Width() int { return m.w }

// Cells returns the backing array, row-major, with its capacity cut to its
// length. It is shared with every other reader of m.
func (m Matrix) Cells() []float64 { return m.cells }

// Row returns row i aliasing the backing array, its capacity cut to its
// length so that appending to it cannot run into row i+1.
func (m Matrix) Row(i int) Vec {
	return m.cells[i*m.w : (i+1)*m.w : (i+1)*m.w]
}

// Rows returns one header per row, each aliasing the backing array as Row
// does: one allocation, no cell copied.
func (m Matrix) Rows() []Vec {
	rows := make([]Vec, m.n)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// Clone returns a deep copy of m in storage of its own.
func (m Matrix) Clone() Matrix {
	return NewMatrix(append(make([]float64, 0, len(m.cells)), m.cells...), m.n, m.w)
}
