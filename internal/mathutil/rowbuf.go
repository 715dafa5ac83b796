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

// Grid returns n rows of cols stale floats each in b's storage, for a
// caller (the work-frame decoder) that fills every cell itself.
func (b *RowBuf) Grid(n, cols int) []Vec {
	rows, data := b.grow(n, n*cols)
	for i := range rows {
		rows[i] = data[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return rows
}
