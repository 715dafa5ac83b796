package mathutil

import (
	"strings"
	"testing"
)

func TestFlattenRows(t *testing.T) {
	m, err := FlattenRows([]Vec{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 || m.Width() != 2 || len(m.Cells()) != 6 || cap(m.Cells()) != 6 {
		t.Fatalf("3×2 matrix has %d rows of %d, %d cells (cap %d)", m.Len(), m.Width(), len(m.Cells()), cap(m.Cells()))
	}
	for i, want := range []Vec{{1, 2}, {3, 4}, {5, 6}} {
		if r := m.Row(i); !r.Equal(want, 0) || cap(r) != len(r) {
			t.Errorf("row %d = %v (cap %d), want %v", i, r, cap(r), want)
		}
	}
	if _, err := FlattenRows([]Vec{{1, 2}, {3}}); err == nil || !strings.Contains(err.Error(), "row 1 has 1 values") {
		t.Errorf("ragged rows: err = %v", err)
	}
	if m, err := FlattenRows(nil); err != nil || m.Len() != 0 || m.Width() != 0 {
		t.Errorf("no rows: %d×%d, err %v", m.Len(), m.Width(), err)
	}
	if m, err := FlattenRows([]Vec{{}, {}}); err != nil || m.Len() != 2 || m.Width() != 0 || len(m.Row(1)) != 0 {
		t.Errorf("zero-width rows: %d×%d, err %v", m.Len(), m.Width(), err)
	}
}

// Rows and Row alias the cells, each capacity cut so appending to a row
// cannot reach the next; Clone shares nothing.
func TestMatrixAliasing(t *testing.T) {
	cells := []float64{1, 2, 3, 4, 5, 6, 99}
	m := NewMatrix(cells[:6], 2, 3)
	rows := m.Rows()
	rows[0][1] = -2
	if cells[1] != -2 {
		t.Error("Rows copied the cells")
	}
	_ = append(rows[1], 7)
	if cells[6] != 99 {
		t.Error("appending to the last row reached past the matrix")
	}
	if _ = append(m.Cells(), 8); cells[6] != 99 {
		t.Error("appending to Cells reached past the matrix")
	}
	c := m.Clone()
	c.Row(0)[0] = 42
	if cells[0] != 1 || c.Len() != 2 || c.Width() != 3 {
		t.Error("Clone shares storage with the original")
	}
}

func TestNewMatrixRejectsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix accepted 5 cells for 2 rows of 3")
		}
	}()
	NewMatrix(make([]float64, 5), 2, 3)
}
