package mathutil

import "sync"

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
// when an earlier use was smaller. Contents are stale until overwritten.
func (b *RowBuf) grow(n, total int) ([]Vec, []float64) {
	if cap(b.rows) < n {
		b.rows = make([]Vec, n)
	}
	if cap(b.data) < total {
		b.data = make([]float64, total)
	}
	return b.rows[:n:n], b.data[:total]
}

// CopyRows deep-copies src into b's storage and returns the copy, laid out
// like CloneRows: each row's capacity is cut to its length, so appending to
// one row reallocates it instead of running into its neighbour.
func (b *RowBuf) CopyRows(src []Vec) []Vec {
	total := 0
	for _, r := range src {
		total += len(r)
	}
	rows, data := b.grow(len(src), total)
	off := 0
	for i, r := range src {
		end := off + copy(data[off:], r)
		rows[i] = data[off:end:end]
		off = end
	}
	return rows
}

// Gather deep-copies src[idx[0]], src[idx[1]], … into b's storage and
// returns the copy, laid out like CopyRows: one flat backing array, each
// row's capacity cut to its length. It is CopyRows over a view of those
// rows without building the view, so a block is read from the table once.
func (b *RowBuf) Gather(src []Vec, idx []int) []Vec {
	total := 0
	if len(idx) > 0 {
		width := len(src[idx[0]])
		if width == 1 {
			if rows, ok := b.gatherColumn(src, idx); ok {
				return rows
			}
		}
		// Sized for rectangular rows, so that each row is visited once; a
		// row longer than the first sends the gather round again at the
		// exact size.
		total = len(idx) * width
	}
	if rows, ok := b.gather(src, idx, total); ok {
		return rows
	}
	total = 0
	for _, i := range idx {
		total += len(src[i])
	}
	rows, _ := b.gather(src, idx, total)
	return rows
}

// gatherColumn is Gather for a block of one-cell rows, in two passes: the
// cells first, one load and one store each, then the headers, which are
// sequential and independent of the table. It reports false, leaving the
// storage for gather to overwrite, at the first row of another width.
func (b *RowBuf) gatherColumn(src []Vec, idx []int) ([]Vec, bool) {
	rows, data := b.grow(len(idx), len(idx))
	for j, i := range idx {
		r := src[i]
		if len(r) != 1 {
			return nil, false
		}
		data[j] = r[0]
	}
	for j := range rows {
		rows[j] = data[j : j+1 : j+1]
	}
	return rows, true
}

// gather is Gather into total floats of b's storage, one row at a time; it
// reports false when the rows do not fit.
func (b *RowBuf) gather(src []Vec, idx []int, total int) ([]Vec, bool) {
	rows, data := b.grow(len(idx), total)
	off := 0
	for j, i := range idx {
		r := src[i]
		if len(r) > len(data)-off {
			return nil, false
		}
		end := off + copy(data[off:], r)
		rows[j] = data[off:end:end]
		off = end
	}
	return rows, true
}

// Grid returns n rows of cols stale floats each in b's storage, for a
// caller (the work-frame decoder) that fills every cell itself.
func (b *RowBuf) Grid(n, cols int) []Vec {
	rows, data := b.grow(n, n*cols)
	for i := range rows {
		rows[i] = data[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return rows
}
