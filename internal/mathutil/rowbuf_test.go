package mathutil

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

func gridRows(n, cols int, base float64) []Vec {
	rows := make([]Vec, n)
	for i := range rows {
		rows[i] = make(Vec, cols)
		for j := range rows[i] {
			rows[i][j] = base + float64(i*cols+j)
		}
	}
	return rows
}

// assertNoReachBack is the third recycling rule: neither the header slice
// nor any row can be re-sliced past its own length into what an earlier,
// larger use of the same storage left behind.
func assertNoReachBack(t *testing.T, rows []Vec) {
	t.Helper()
	if cap(rows) != len(rows) {
		t.Errorf("header slice has len %d but cap %d: stale headers reachable", len(rows), cap(rows))
	}
	for i, r := range rows {
		if cap(r) != len(r) {
			t.Fatalf("row %d has len %d but cap %d: a neighbour's or stale bytes reachable", i, len(r), cap(r))
		}
	}
}

func TestRowBufCopyRowsReuse(t *testing.T) {
	var buf RowBuf
	big := gridRows(500, 3, 1000)
	got := buf.CopyRows(big)
	assertNoReachBack(t, got)

	// A vandal leaves the recycled headers reversed and the cells zeroed.
	for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
		got[i], got[j] = got[j], got[i]
	}
	for _, r := range got {
		for k := range r {
			r[k] = 0
		}
	}

	small := gridRows(100, 2, 0)
	got = buf.CopyRows(small)
	if len(got) != len(small) {
		t.Fatalf("copied %d rows, want %d", len(got), len(small))
	}
	assertNoReachBack(t, got)
	for i := range small {
		if !got[i].Equal(small[i], 0) {
			t.Fatalf("row %d = %v after reuse, want %v", i, got[i], small[i])
		}
		got[i][0] = -1
	}
	if small[0][0] != 0 || big[0][0] != 1000 {
		t.Error("CopyRows aliases its input")
	}
	if allocs := testing.AllocsPerRun(20, func() { buf.CopyRows(small) }); allocs != 0 {
		t.Errorf("CopyRows into storage that already fits allocates %.0f times, want 0", allocs)
	}
}

// view is the header gather Gather replaces: src[idx[0]], src[idx[1]], …
// aliasing src.
func view(src []Vec, idx []int) []Vec {
	out := make([]Vec, len(idx))
	for j, i := range idx {
		out[j] = src[i]
	}
	return out
}

// assertSameRows fails unless got and want hold the same rows, bit for bit
// and in the same order.
func assertSameRows(t *testing.T, got, want []Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

// gridMatrix is gridRows as one row-major Matrix.
func gridMatrix(n, cols int, base float64) Matrix {
	m, err := FlattenRows(gridRows(n, cols, base))
	if err != nil {
		panic(err)
	}
	return m
}

// Gather is CopyRows over the view of the same index list: the same rows in
// the same order, every capacity cut, and nothing aliased, for wide rows,
// one-column rows, zero-width rows, repeated indices and an empty list, into
// fresh storage and into storage a larger, wider block left stale.
func TestRowBufGatherMatchesCopyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := map[string]struct {
		src Matrix
		idx []int
	}{
		"rectangular": {gridMatrix(400, 3, 0), rng.Perm(400)[:150]},
		"repeats":     {gridMatrix(50, 2, 7), []int{4, 4, 0, 49, 4, 17}},
		"wide":        {gridMatrix(300, 11, -5), rng.Perm(300)},
		"empty":       {gridMatrix(10, 3, 0), []int{}},
		"nil":         {gridMatrix(10, 3, 0), nil},
		"one column":  {gridMatrix(400, 1, 0), rng.Perm(400)[:150]},
		"zero width":  {gridMatrix(60, 0, 0), []int{0, 5, 37, 2, 59, 37}},
	}
	stale := gridRows(1000, 5, -1e6)
	for name, c := range cases {
		src := c.src.Rows()
		want := new(RowBuf).CopyRows(view(src, c.idx))
		var reused RowBuf
		reused.CopyRows(stale)
		for _, buf := range []*RowBuf{new(RowBuf), &reused} {
			got := buf.Gather(c.src, c.idx)
			assertSameRows(t, got, want)
			assertNoReachBack(t, got)
			for j, i := range c.idx {
				if len(got[j]) > 0 && &got[j][0] == &src[i][0] {
					t.Fatalf("%s: row %d aliases source row %d", name, j, i)
				}
			}
		}
	}
}

// FuzzGatherMatchesCopyRows builds a table from one byte string, its first
// byte giving the width (0–11) of every row and its length the row count,
// and an index list from the other, and checks Gather against CopyRows over
// the view, into fresh storage and into storage that a larger, wider block
// left stale.
func FuzzGatherMatchesCopyRows(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1}, []byte{3, 0, 2, 0})
	f.Add([]byte{1, 1, 4, 1}, []byte{0, 2, 1})
	f.Add([]byte{1, 0, 1}, []byte{0, 1, 2, 1})
	f.Add([]byte{11, 11, 11}, []byte{2, 1, 0})
	f.Add([]byte{3, 1, 2}, []byte{})
	f.Fuzz(func(t *testing.T, widths, picks []byte) {
		if len(widths) == 0 {
			return
		}
		w := int(widths[0] % 12)
		cells := make([]float64, len(widths)*w)
		for k := range cells {
			cells[k] = float64(k + 1)
		}
		src := NewMatrix(cells, len(widths), w)
		idx := make([]int, len(picks))
		for j, p := range picks {
			idx[j] = int(p) % len(widths)
		}
		want := new(RowBuf).CopyRows(view(src.Rows(), idx))
		var reused RowBuf
		reused.Grid(len(idx)+3, 12)
		for _, buf := range []*RowBuf{new(RowBuf), &reused} {
			got := buf.Gather(src, idx)
			assertSameRows(t, got, want)
			assertNoReachBack(t, got)
		}
	})
}

// Gathering into storage that already fits allocates nothing: a chamber's
// pooled buffer serves block after block.
func TestRowBufGatherReuseAllocations(t *testing.T) {
	src := gridMatrix(2000, 1, 0)
	idx := rand.New(rand.NewSource(5)).Perm(src.Len())[:300]
	var buf RowBuf
	buf.Gather(src, idx)
	if allocs := testing.AllocsPerRun(50, func() { buf.Gather(src, idx) }); allocs != 0 {
		t.Errorf("Gather into storage that already fits allocates %.0f times, want 0", allocs)
	}
}

// assertTiled fails unless every row has w cells and row j starts w cells
// after row j-1: the rows tile one array from its first cell on.
func assertTiled(t *testing.T, rows []Vec, w int) {
	t.Helper()
	for j, r := range rows {
		if len(r) != w {
			t.Fatalf("row %d has %d cells, want %d", j, len(r), w)
		}
		if w > 0 && j > 0 && uintptr(unsafe.Pointer(&r[0])) != uintptr(unsafe.Pointer(&rows[0][0]))+uintptr(8*w*j) {
			t.Fatalf("row %d does not start %d cells after row %d", j, w, j-1)
		}
	}
}

// One buffer serves blocks of changing widths and sizes, gathered and
// decoded (Grid), and a vandal rewrites the headers it was handed after
// every use: swaps them, points one at another row's cells, empties one
// and drops one. Each shape is used twice in a row, so the second use
// finds its header template ready. Every use must still rewrite all of its
// headers, from the first cell of its own storage on, with both capacities
// cut (the recycling rule the header template must keep).
func TestRowBufReusedHeadersRewritten(t *testing.T) {
	var buf RowBuf
	vandalise := func(rows []Vec) {
		if len(rows) < 3 {
			return
		}
		rows[0], rows[1] = rows[1], rows[0]
		rows[2] = rows[len(rows)-1]
		if r := rows[len(rows)-1]; cap(r) > 0 {
			rows[len(rows)-1] = r[:0]
		}
		rows[len(rows)/2] = nil
	}
	rng := rand.New(rand.NewSource(9))
	for step, s := range []struct{ w, n int }{
		{1, 300}, {1, 300}, {1, 120}, {3, 100}, {3, 100}, {1, 300}, {0, 40}, {11, 200}, {11, 385}, {2, 50}, {11, 385},
	} {
		src := gridMatrix(500, s.w, float64(1000*step))
		for range 2 {
			idx := rng.Perm(500)[:s.n]
			got := buf.Gather(src, idx)
			assertSameRows(t, got, new(RowBuf).CopyRows(view(src.Rows(), idx)))
			assertNoReachBack(t, got)
			assertTiled(t, got, s.w)
			vandalise(got)
		}
		for range 2 {
			g, _ := buf.Grid(s.n, s.w+1)
			if len(g) != s.n {
				t.Fatalf("step %d: grid has %d rows, want %d", step, len(g), s.n)
			}
			assertNoReachBack(t, g)
			assertTiled(t, g, s.w+1)
			vandalise(g)
		}
	}
}

func TestRowBufGridReuse(t *testing.T) {
	var buf RowBuf
	buf.Grid(500, 11)
	g, cells := buf.Grid(100, 4)
	if len(g) != 100 || len(cells) != 400 {
		t.Fatalf("grid has %d rows over %d cells, want 100 over 400", len(g), len(cells))
	}
	assertNoReachBack(t, g)
	for i, r := range g {
		if len(r) != 4 {
			t.Fatalf("row %d has %d cells, want 4", i, len(r))
		}
		for j := range r {
			r[j] = float64(i*4 + j)
		}
	}
	// Rows tile the backing array without overlap, and the cells are that
	// array in row-major order.
	for i, r := range g {
		if r[0] != float64(i*4) || r[3] != float64(i*4+3) {
			t.Fatalf("row %d = %v: rows overlap", i, r)
		}
	}
	for k, x := range cells {
		if x != float64(k) {
			t.Fatalf("cell %d = %v, want %d: the cells are not the rows' storage", k, x, k)
		}
	}
	if g, _ := buf.Grid(3, 0); len(g) != 3 || len(g[0]) != 0 {
		t.Errorf("zero-width grid = %v", g)
	}
}

func TestMedianSortedMatchesMedian(t *testing.T) {
	for _, xs := range [][]float64{nil, {3}, {1, 2}, {1, 2, 4}, {-1, 0, 0.5, 9}} {
		if got, want := MedianSorted(xs), Median(xs); got != want {
			t.Errorf("MedianSorted(%v) = %v, Median = %v", xs, got, want)
		}
	}
}

// One 385×11 block copied fresh and into recycled storage: the pair the
// chamber boundary chose between.
func BenchmarkCloneRows(b *testing.B) {
	rows := gridRows(385, 11, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CloneRows(rows)
	}
}

func BenchmarkRowBufCopyRows(b *testing.B) {
	rows := gridRows(385, 11, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetRowBuf()
		buf.CopyRows(rows)
		buf.Release()
	}
}

// The same block gathered from a 20,000-row table by index, as the
// in-process chamber copies a block.
func BenchmarkRowBufGather(b *testing.B) {
	src := gridMatrix(20000, 11, 0)
	idx := rand.New(rand.NewSource(1)).Perm(src.Len())[:385]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetRowBuf()
		buf.Gather(src, idx)
		buf.Release()
	}
}
