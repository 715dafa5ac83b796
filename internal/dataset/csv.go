package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"gupt/internal/mathutil"
)

// ReadCSV parses a table from CSV. If header is true the first record is
// taken as column names; otherwise columns are anonymous. Every field must
// parse as a float64.
func ReadCSV(r io.Reader, header bool) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // we validate rectangularity ourselves with better errors

	var t *Table
	var row mathutil.Vec
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: csv line %d: %w", line+1, err)
		}
		line++
		if t == nil {
			if header {
				t = New(rec)
				continue
			}
			t = New(nil)
		}
		// Append copies the row into the table's cells, so one row buffer
		// serves every line.
		row = row[:0]
		for i, f := range rec {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: csv line %d field %d: %w", line, i+1, err)
			}
			row = append(row, v)
		}
		if err := t.Append(row); err != nil {
			return nil, fmt.Errorf("dataset: csv line %d: %w", line, err)
		}
	}
	if t == nil {
		return nil, fmt.Errorf("dataset: empty csv input")
	}
	return t, nil
}

// WriteCSV writes the table as CSV. Column names are emitted as a header
// row when present.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.cols) > 0 {
		if err := cw.Write(t.cols); err != nil {
			return fmt.Errorf("dataset: write header: %w", err)
		}
	}
	rec := make([]string, t.Dims())
	m := t.Matrix()
	for r := 0; r < m.Len(); r++ {
		for i, v := range m.Row(r) {
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadCSVFile reads a table from the named CSV file.
func LoadCSVFile(path string, header bool) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ReadCSV(f, header)
}

// SaveCSVFile writes the table to the named CSV file, creating or
// truncating it.
func (t *Table) SaveCSVFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dataset: %w", cerr)
		}
	}()
	return t.WriteCSV(f)
}
