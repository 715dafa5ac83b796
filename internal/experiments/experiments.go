// Package experiments reproduces every table and figure in the GUPT
// paper's evaluation (§6.1 and §7), one runner per artifact. Each runner
// returns a typed result with the same rows/series the paper reports plus a
// Table() rendering; cmd/gupt-bench drives them from the command line and
// bench_test.go wraps them as testing.B benchmarks.
//
// The workloads are the synthetic stand-ins from internal/workload (see
// DESIGN.md §3 for the substitution rationale), so absolute numbers differ
// from the paper; the shape of each result — who wins, how trends move with
// ε, iterations or block size, where crossovers fall — is the reproduction
// target. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"strings"
)

// Config scales the experiments.
type Config struct {
	// Seed drives all randomness; fixed seed ⇒ identical report.
	Seed int64
	// Quick shrinks dataset sizes and trial counts for CI and unit tests.
	// Full-size runs reproduce the paper's setup.
	Quick bool
}

// scale returns full when Quick is off, quick otherwise.
func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// table is a small text-table builder shared by the runners' Table()
// methods.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

func f(v float64) string { return fmt.Sprintf("%.4g", v) }
