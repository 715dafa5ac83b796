package compman

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exploitSpec is a "binary" program that, were it ever executed, would run
// a shell as the daemon's own user: it appends a line to marker (an
// absolute path outside any chamber scratch directory) and then answers the
// chamber protocol so the block would look healthy.
func exploitSpec(marker string) ProgramSpec {
	return ProgramSpec{
		Type:       "binary",
		Path:       "/bin/sh",
		Args:       []string{"-c", "echo x >> '" + marker + "'; echo '{\"output\":[1]}'"},
		OutputDims: 1,
	}
}

// assertNoMarker fails if the exploit program ran anywhere.
func assertNoMarker(t *testing.T, marker string) {
	t.Helper()
	if b, err := os.ReadFile(marker); err == nil {
		t.Fatalf("binary program was executed: marker holds %q", b)
	} else if !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
}

// A client-named executable sent through the server is refused before
// anything is charged or run: the query fails with the fixed refusal, the
// marker never appears and the dataset's budget is untouched.
func TestQueryBinaryProgramRefused(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "marker")
	client, _ := startServer(t, 100)
	spec := exploitSpec(marker)
	_, err := client.Query(&Request{
		Dataset:      "census",
		Program:      &spec,
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:      1,
		BlockSize:    1200,
	})
	if err == nil || !strings.Contains(err.Error(), "binary programs are not served") {
		t.Fatalf("binary query: err = %v, want the binary refusal", err)
	}
	assertNoMarker(t, marker)
	rem, err := client.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if rem != 100 {
		t.Errorf("refused binary query charged the budget: remaining %v, want 100", rem)
	}
}

// The worker port has no authentication, so the same spec sent straight to
// a worker must be refused there too, not only at the server.
func TestWorkerBinaryProgramRefused(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "marker")
	pool, err := NewWorkerPool([]string{startWorker(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	_, err = pool.Chamber(WorkSpec{Program: exploitSpec(marker)}, nil).Execute(context.Background(), workerBlock(5))
	if err == nil || !strings.Contains(err.Error(), "binary programs are not served") {
		t.Fatalf("worker binary block: err = %v, want the binary refusal", err)
	}
	assertNoMarker(t, marker)
}
