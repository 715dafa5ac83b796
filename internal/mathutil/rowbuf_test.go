package mathutil

import (
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

// PermInto must be math/rand's Perm draw for draw, whatever the recycled
// slice held, so that seeds keep producing the partitions they always did.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{1, 2, 385, 20000} {
		m := make([]int, n)
		for seed := int64(0); seed < 100; seed++ {
			for i := range m {
				m[i] = -7 // stale contents of a recycled slice
			}
			NewRNG(seed).PermInto(m)
			want := rand.New(rand.NewSource(seed)).Perm(n)
			for i := range want {
				if m[i] != want[i] {
					t.Fatalf("n=%d seed=%d: PermInto[%d] = %d, rand.Perm gives %d", n, seed, i, m[i], want[i])
				}
			}
		}
	}
	// The generator is left where rand.Perm leaves it.
	g, r := NewRNG(5), rand.New(rand.NewSource(5))
	g.PermInto(make([]int, 385))
	r.Perm(385)
	if a, b := g.Int63(), r.Int63(); a != b {
		t.Errorf("next draw after PermInto = %d, after rand.Perm = %d", a, b)
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

func BenchmarkPermInto(b *testing.B) {
	g, m := NewRNG(1), make([]int, 20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.PermInto(m)
	}
}
