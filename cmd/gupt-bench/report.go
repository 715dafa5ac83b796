package main

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// Report is the machine-readable counterpart of gupt-bench's text tables:
// one run of the harness, with per-experiment outcomes and (where the
// experiment produces a plottable series) the parsed CSV data. It is what
// -json writes.
type Report struct {
	// Seed and Quick pin the parameters the run used, so a checked-in
	// report is reproducible.
	Seed  int64 `json:"seed"`
	Quick bool  `json:"quick"`
	// Experiments appear in the order they ran.
	Experiments []ExperimentReport `json:"experiments"`
}

// ExperimentReport is one experiment's outcome.
type ExperimentReport struct {
	ID string `json:"id"`
	OK bool   `json:"ok"`
	// Error holds the failure message when OK is false.
	Error string `json:"error,omitempty"`
	// WallMillis is the experiment's wall-clock runtime in milliseconds.
	// This is harness time, not query time: it is operator-facing
	// benchmark output over synthetic data, not a per-query export.
	WallMillis int64 `json:"wallMillis"`
	// Series is the experiment's CSV series (error metrics, overheads, …)
	// parsed into a header row plus data rows; nil when the experiment
	// has no plottable series.
	Series *Series `json:"series,omitempty"`
}

// Series is a parsed CSV table.
type Series struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// parseSeries converts a result's CSV() text into a Series. Experiments
// emit simple comma-separated tables; a parse failure is reported rather
// than silently dropped.
func parseSeries(text string) (*Series, error) {
	records, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, nil
	}
	s := &Series{Header: records[0], Rows: records[1:]}
	if s.Rows == nil {
		s.Rows = [][]string{}
	}
	return s, nil
}

// record appends one experiment outcome to the report.
func (r *Report) record(id string, result tabler, elapsed time.Duration, runErr error) {
	er := ExperimentReport{ID: id, OK: runErr == nil, WallMillis: elapsed.Milliseconds()}
	if runErr != nil {
		er.Error = runErr.Error()
	} else if c, ok := result.(csver); ok {
		series, err := parseSeries(c.CSV())
		if err != nil {
			er.OK = false
			er.Error = "parsing csv series: " + err.Error()
		} else {
			er.Series = series
		}
	}
	r.Experiments = append(r.Experiments, er)
}

// write marshals the report to path, indented so diffs of a checked-in
// report stay readable.
func (r *Report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
