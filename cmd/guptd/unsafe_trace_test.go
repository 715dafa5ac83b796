package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gupt/internal/compman"
	"gupt/internal/telemetry/audit"
)

// buildGuptd builds this command's binary into a test directory.
func buildGuptd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "guptd")
	if out, err := exec.Command("go", "build", "-o", bin, "gupt/cmd/guptd").CombinedOutput(); err != nil {
		t.Fatalf("building guptd: %v\n%s", err, out)
	}
	return bin
}

// syncBuf collects a child's stderr while the test reads it.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// The raw trace has one sink, the audit chain: with -unsafe-trace-log and
// -audit-dir every settled query writes exactly one unsafe_trace record and
// the process log carries none of them; without -audit-dir guptd refuses
// to start.
func TestUnsafeTraceLogWritesOnlyTheAuditChain(t *testing.T) {
	bin := buildGuptd(t)
	csv := writeCSV(t, "age\n"+strings.Repeat("40\n", 400))
	spec := "census=" + csv + ":budget=5:header"

	t.Run("refused without -audit-dir", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, bin, "-listen", "127.0.0.1:0", "-dataset", spec, "-unsafe-trace-log").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("guptd exited with %v, want status 2; output:\n%s", err, out)
		}
		if !strings.Contains(string(out), "-unsafe-trace-log requires -audit-dir") {
			t.Errorf("refusal does not name the missing flag:\n%s", out)
		}
	})

	t.Run("one audit record per settled query", func(t *testing.T) {
		dir := t.TempDir()
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-dataset", spec, "-unsafe-trace-log", "-audit-dir", dir)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var logged syncBuf
		addrCh := make(chan string, 1)
		scanned := make(chan struct{})
		go func() {
			defer close(scanned)
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				line := sc.Text()
				logged.Write([]byte(line + "\n"))
				if i := strings.Index(line, " on 127.0.0.1:"); i >= 0 && strings.Contains(line, "serving ") {
					addrCh <- line[i+len(" on "):]
				}
			}
		}()
		stopped := false
		stop := func() {
			if stopped {
				return
			}
			stopped = true
			cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan struct{})
			go func() { <-scanned; cmd.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				<-done
			}
		}
		t.Cleanup(stop)

		var addr string
		select {
		case addr = <-addrCh:
		case <-time.After(30 * time.Second):
			t.Fatalf("guptd never reported its address; log:\n%s", logged.String())
		}
		client, err := compman.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()

		// Three answered queries and one refused for budget: four settled.
		for i, eps := range []float64{1, 1, 1, 10} {
			_, err := client.Query(&compman.Request{
				Dataset:      "census",
				Program:      &compman.ProgramSpec{Type: "mean"},
				OutputRanges: []compman.RangeSpec{{Lo: 0, Hi: 150}},
				Epsilon:      eps,
				Seed:         int64(i + 1),
			})
			var qe *compman.QueryError
			switch {
			case err == nil:
			case eps == 10 && errors.As(err, &qe) && strings.Contains(qe.Msg, "budget"):
			default:
				t.Fatalf("query %d: %v", i, err)
			}
		}
		stop()

		if !strings.Contains(logged.String(), "WARNING: -unsafe-trace-log") {
			t.Errorf("guptd did not warn about -unsafe-trace-log; log:\n%s", logged.String())
		}
		rep, err := audit.Verify(dir)
		if err != nil {
			t.Fatalf("audit verify: %v", err)
		}
		if rep.UnsafeRecords != 4 {
			t.Errorf("UnsafeRecords = %d, want 4 (one per settled query)", rep.UnsafeRecords)
		}
		recs, err := audit.Read(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		var settled []string // trace ids of the query records
		perTrace := map[string]int{}
		for _, r := range recs {
			switch r.Type {
			case audit.TypeQuery:
				settled = append(settled, r.TraceID)
			case audit.TypeUnsafeTrace:
				if !r.UnsafeRaw || !strings.Contains(r.Detail, "trace "+r.TraceID) {
					t.Errorf("unsafe_trace record %+v does not carry its raw trace line", r)
				}
				perTrace[r.TraceID]++
			}
		}
		if len(settled) != 4 {
			t.Errorf("%d query records, want 4", len(settled))
		}
		for _, id := range settled {
			if perTrace[id] != 1 {
				t.Errorf("trace %s has %d unsafe_trace records, want 1", id, perTrace[id])
			}
			if strings.Contains(logged.String(), id) {
				t.Errorf("process log carries trace %s", id)
			}
		}
		if raw := regexp.MustCompile(`trace [0-9a-f]{32}`).FindString(logged.String()); raw != "" {
			t.Errorf("process log carries a raw trace line (%q)", raw)
		}
	})
}
