package dataset

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

func mkTable(t *testing.T, rows ...mathutil.Vec) *Table {
	t.Helper()
	tbl, err := FromRows(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableAppendAndAccess(t *testing.T) {
	tbl := New([]string{"a", "b"})
	if err := tbl.Append(mathutil.Vec{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(mathutil.Vec{3}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("short row accepted, err=%v", err)
	}
	if tbl.NumRows() != 1 || tbl.Dims() != 2 {
		t.Errorf("NumRows=%d Dims=%d", tbl.NumRows(), tbl.Dims())
	}
	if got := tbl.Column(1); got[0] != 2 {
		t.Errorf("Column(1) = %v", got)
	}
}

func TestTableRowsAreCopies(t *testing.T) {
	src := mathutil.Vec{1, 2}
	tbl := New(nil)
	if err := tbl.Append(src); err != nil {
		t.Fatal(err)
	}
	src[0] = 99 // mutating the caller's slice must not affect the table
	if tbl.Row(0)[0] != 1 {
		t.Error("Append aliased caller slice")
	}
	r := tbl.Row(0)
	r[1] = 99
	if tbl.Row(0)[1] != 2 {
		t.Error("Row exposed internal storage")
	}
	rows := tbl.Rows()
	rows[0][0] = 42
	if tbl.Row(0)[0] != 1 {
		t.Error("Rows exposed internal storage")
	}
	// View is the one accessor that does not copy: the trusted engine reads
	// the registered rows through it in place.
	if view := tbl.View(); len(view) != 1 || &view[0][0] != &tbl.rows[0][0] {
		t.Error("View copied the table instead of aliasing it")
	}
}

func TestTableRaggedRejected(t *testing.T) {
	_, err := FromRows(nil, []mathutil.Vec{{1, 2}, {3}})
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged rows accepted, err=%v", err)
	}
}

func TestTableSubset(t *testing.T) {
	tbl := mkTable(t, mathutil.Vec{0}, mathutil.Vec{1}, mathutil.Vec{2}, mathutil.Vec{3})
	sub := tbl.Subset([]int{3, 1})
	if sub.NumRows() != 2 || sub.Row(0)[0] != 3 || sub.Row(1)[0] != 1 {
		t.Errorf("Subset rows wrong: %v", sub.Rows())
	}
}

func TestTableSetRanges(t *testing.T) {
	tbl := mkTable(t, mathutil.Vec{1, 2})
	if err := tbl.SetRanges([]dp.Range{{Lo: 0, Hi: 1}}); err == nil {
		t.Error("wrong-length ranges accepted")
	}
	if err := tbl.SetRanges([]dp.Range{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 0}}); err == nil {
		t.Error("inverted range accepted")
	}
	want := []dp.Range{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 10}}
	if err := tbl.SetRanges(want); err != nil {
		t.Fatal(err)
	}
	got := tbl.Ranges()
	if len(got) != 2 || got[1].Hi != 10 {
		t.Errorf("Ranges = %v", got)
	}
	got[0].Hi = 999 // copy, not alias
	if tbl.Ranges()[0].Hi != 1 {
		t.Error("Ranges exposed internal state")
	}
}

func TestTableSplit(t *testing.T) {
	rows := make([]mathutil.Vec, 100)
	for i := range rows {
		rows[i] = mathutil.Vec{float64(i)}
	}
	tbl, _ := FromRows(nil, rows)
	a, b := tbl.Split(mathutil.NewRNG(1), 0.3)
	if a.NumRows() != 30 || b.NumRows() != 70 {
		t.Fatalf("Split sizes %d/%d, want 30/70", a.NumRows(), b.NumRows())
	}
	// Together they form an exact partition of the rows.
	seen := make(map[float64]bool)
	for _, part := range []*Table{a, b} {
		for _, r := range part.Rows() {
			if seen[r[0]] {
				t.Fatalf("row %v appears twice", r[0])
			}
			seen[r[0]] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("partition lost rows: %d", len(seen))
	}
	// Deterministic in the seed.
	a2, _ := tbl.Split(mathutil.NewRNG(1), 0.3)
	for i := 0; i < a.NumRows(); i++ {
		if a.Row(i)[0] != a2.Row(i)[0] {
			t.Fatal("Split not deterministic for fixed seed")
		}
	}
}

// Property: Split(frac) always partitions: sizes add up and no row is lost
// or duplicated, for any frac.
func TestTableSplitProperty(t *testing.T) {
	f := func(nRaw uint8, fracRaw float64, seed int64) bool {
		n := int(nRaw%50) + 1
		frac := math.Abs(math.Mod(fracRaw, 1))
		rows := make([]mathutil.Vec, n)
		for i := range rows {
			rows[i] = mathutil.Vec{float64(i)}
		}
		tbl, err := FromRows(nil, rows)
		if err != nil {
			return false
		}
		a, b := tbl.Split(mathutil.NewRNG(seed), frac)
		if a.NumRows()+b.NumRows() != n {
			return false
		}
		seen := make(map[float64]bool, n)
		for _, part := range []*Table{a, b} {
			for _, r := range part.Rows() {
				if seen[r[0]] {
					return false
				}
				seen[r[0]] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl, err := FromRows([]string{"x", "y"}, []mathutil.Vec{{1.5, -2}, {0.25, 1e10}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()), true)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 2 || back.Dims() != 2 {
		t.Fatalf("round trip shape %dx%d", back.NumRows(), back.Dims())
	}
	if back.Columns()[1] != "y" {
		t.Errorf("columns = %v", back.Columns())
	}
	for i := 0; i < 2; i++ {
		if !back.Row(i).Equal(tbl.Row(i), 0) {
			t.Errorf("row %d = %v, want %v", i, back.Row(i), tbl.Row(i))
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), false); err == nil {
		t.Error("empty csv accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,notanumber\n"), false); err == nil {
		t.Error("non-numeric field accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n"), false); err == nil {
		t.Error("ragged csv accepted")
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	tbl := mkTable(t, mathutil.Vec{1, 2}, mathutil.Vec{3, 4})
	path := t.TempDir() + "/t.csv"
	if err := tbl.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 2 {
		t.Errorf("file round trip lost rows: %d", back.NumRows())
	}
	if _, err := LoadCSVFile(path+".missing", false); err == nil {
		t.Error("missing file accepted")
	}
}

// BenchmarkTableRows is the cost of taking a private copy of a whole table
// (callers outside the query path: experiments, examples, the bench twin).
func BenchmarkTableRows(b *testing.B) {
	tbl := New(nil)
	for i := 0; i < 20000; i++ {
		if err := tbl.Append(mathutil.Vec{float64(i % 150)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := tbl.Rows(); len(rows) != tbl.NumRows() {
			b.Fatal("short copy")
		}
	}
}
