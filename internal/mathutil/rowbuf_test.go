package mathutil

import (
	"math"
	"math/rand"
	"testing"
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

// Gather is CopyRows over the view of the same index list: the same rows in
// the same order, every capacity cut, and nothing aliased, for rectangular
// rows, ragged rows, one-column rows (with and without a row of another
// width further on) and an empty list, into fresh storage and into storage
// a larger, wider block left stale.
func TestRowBufGatherMatchesCopyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ragged := make([]Vec, 300)
	for i := range ragged {
		ragged[i] = make(Vec, rng.Intn(6))
		for k := range ragged[i] {
			ragged[i][k] = rng.NormFloat64()
		}
	}
	colWider := gridRows(60, 1, 0)
	colWider[37] = Vec{-1, -2, -3}
	colEmpty := gridRows(60, 1, 0)
	colEmpty[37] = Vec{}
	cases := map[string]struct {
		src []Vec
		idx []int
	}{
		"rectangular":            {gridRows(400, 3, 0), rng.Perm(400)[:150]},
		"repeats":                {gridRows(50, 2, 7), []int{4, 4, 0, 49, 4, 17}},
		"ragged":                 {ragged, rng.Perm(300)},
		"empty":                  {gridRows(10, 3, 0), []int{}},
		"nil":                    {gridRows(10, 3, 0), nil},
		"one column":             {gridRows(400, 1, 0), rng.Perm(400)[:150]},
		"one column, then wider": {colWider, []int{0, 5, 37, 2, 59, 37}},
		"one column, then empty": {colEmpty, []int{0, 5, 37, 2, 59, 37}},
	}
	stale := gridRows(1000, 5, -1e6)
	for name, c := range cases {
		want := new(RowBuf).CopyRows(view(c.src, c.idx))
		var reused RowBuf
		reused.CopyRows(stale)
		for _, buf := range []*RowBuf{new(RowBuf), &reused} {
			got := buf.Gather(c.src, c.idx)
			assertSameRows(t, got, want)
			assertNoReachBack(t, got)
			for j, i := range c.idx {
				if len(got[j]) > 0 && &got[j][0] == &c.src[i][0] {
					t.Fatalf("%s: row %d aliases source row %d", name, j, i)
				}
			}
		}
	}
}

// FuzzGatherMatchesCopyRows builds a table from one byte string, a byte per
// row giving its width (0–11), and an index list from the other, and checks
// Gather against CopyRows over the view, into fresh storage and into storage
// that a larger, wider block left stale.
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
		src := make([]Vec, len(widths))
		cell := 0.0
		for i, w := range widths {
			src[i] = make(Vec, w%12)
			for k := range src[i] {
				cell++
				src[i][k] = cell
			}
		}
		idx := make([]int, len(picks))
		for j, p := range picks {
			idx[j] = int(p) % len(src)
		}
		want := new(RowBuf).CopyRows(view(src, idx))
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
	src := gridRows(2000, 1, 0)
	idx := rand.New(rand.NewSource(5)).Perm(len(src))[:300]
	var buf RowBuf
	buf.Gather(src, idx)
	if allocs := testing.AllocsPerRun(50, func() { buf.Gather(src, idx) }); allocs != 0 {
		t.Errorf("Gather into storage that already fits allocates %.0f times, want 0", allocs)
	}
}

func TestRowBufGridReuse(t *testing.T) {
	var buf RowBuf
	buf.Grid(500, 11)
	g := buf.Grid(100, 4)
	if len(g) != 100 {
		t.Fatalf("grid has %d rows, want 100", len(g))
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
	// Rows tile the backing array without overlap.
	for i, r := range g {
		if r[0] != float64(i*4) || r[3] != float64(i*4+3) {
			t.Fatalf("row %d = %v: rows overlap", i, r)
		}
	}
	if g := buf.Grid(3, 0); len(g) != 3 || len(g[0]) != 0 {
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
	src := gridRows(20000, 11, 0)
	idx := rand.New(rand.NewSource(1)).Perm(len(src))[:385]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetRowBuf()
		buf.Gather(src, idx)
		buf.Release()
	}
}
