package mathutil

import (
	"slices"
	"sync"
)

// RowBuf is recycled storage for one private block of rows: a header slice
// over one flat backing array, both kept between uses so that a block path
// in steady state allocates nothing. It is as private as a fresh allocation
// provided its holder releases it only once the program that saw the rows
// has really ended, having first copied out whatever the program returned
// (sandbox.InProcess spells the rules out). A buffer that is never released
// is simply collected; holders that cannot know when the program is done
// keep using CloneRows.
type RowBuf struct {
	rows []Vec
	data []float64
	// cut holds consecutive cutW-cell headers over data, each capacity cut
	// to its length: a pristine copy that no program ever sees, from which
	// a uniform use rewrites all of its headers in one copy instead of one
	// slice expression per row. A buffer builds it on a use that finds its
	// header slice already big enough, so a buffer used once never does, and
	// rebuilds it when the width changes, when it is too short, and when
	// data is reallocated.
	cut  []Vec
	cutW int
}

var rowBufPool = sync.Pool{New: func() any { return new(RowBuf) }}

// GetRowBuf takes a buffer from the process-wide pool.
func GetRowBuf() *RowBuf { return rowBufPool.Get().(*RowBuf) }

// Release returns b to the pool; rows handed out by b must not be touched
// afterwards. A nil b is a no-op.
func (b *RowBuf) Release() {
	if b != nil {
		rowBufPool.Put(b)
	}
}

// grow returns n headers over total floats of b's storage, allocating only
// when an earlier use was smaller, and reports whether the headers are
// reused. Contents are stale until overwritten.
func (b *RowBuf) grow(n, total int) ([]Vec, []float64, bool) {
	reused := cap(b.rows) >= n
	if !reused {
		b.rows = make([]Vec, n)
	}
	if cap(b.data) < total {
		b.data = make([]float64, total)
		b.cut = nil
	}
	return b.rows[:n:n], b.data[:total], reused
}

// cutRows rewrites every header of rows as consecutive w-cell rows of b's
// storage, from the first cell on, each with its capacity cut to its
// length; rows and reused come from grow(len(rows), len(rows)*w).
func (b *RowBuf) cutRows(rows []Vec, w int, reused bool) {
	if b.cutW != w || len(b.cut) < len(rows) {
		if !reused {
			for j := range rows {
				rows[j] = b.data[j*w : (j+1)*w : (j+1)*w]
			}
			return
		}
		b.cut = slices.Grow(b.cut[:0], len(rows))[:len(rows)]
		for j := range b.cut {
			b.cut[j] = b.data[j*w : (j+1)*w : (j+1)*w]
		}
		b.cutW = w
	}
	copy(rows, b.cut)
}

// CopyRows deep-copies src into b's storage and returns the copy, laid out
// like CloneRows: each row's capacity is cut to its length, so appending to
// one row reallocates it instead of running into its neighbour.
func (b *RowBuf) CopyRows(src []Vec) []Vec {
	total := 0
	for _, r := range src {
		total += len(r)
	}
	rows, data, _ := b.grow(len(src), total)
	off := 0
	for i, r := range src {
		end := off + copy(data[off:], r)
		rows[i] = data[off:end:end]
		off = end
	}
	return rows
}

// Gather deep-copies rows idx[0], idx[1], … of src into b's storage and
// returns the copy, laid out like CopyRows: one flat backing array, each
// row's capacity cut to its length. Each row is read from src by stride, so
// a block is read from the table once and builds no view of it first: one
// load per cell at width 1, one copy per row otherwise. The headers are
// written in a second pass, one copy independent of the table.
func (b *RowBuf) Gather(src Matrix, idx []int) []Vec {
	w, cells := src.w, src.cells
	rows, data, reused := b.grow(len(idx), len(idx)*w)
	if w == 1 {
		for j, i := range idx {
			data[j] = cells[i]
		}
	} else {
		for j, i := range idx {
			copy(data[j*w:(j+1)*w], cells[i*w:(i+1)*w])
		}
	}
	b.cutRows(rows, w, reused)
	return rows
}

// Grid returns n rows of cols stale floats each in b's storage, and the
// n*cols cells under them in row-major order, for a caller (the work-frame
// decoder) that fills every cell itself, in one pass over cells.
func (b *RowBuf) Grid(n, cols int) ([]Vec, []float64) {
	rows, cells, reused := b.grow(n, n*cols)
	b.cutRows(rows, cols, reused)
	return rows, cells
}
