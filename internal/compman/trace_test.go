package compman

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
	"gupt/internal/telemetry/audit"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

// lockedBuf makes a bytes.Buffer safe to share between the server's
// connection goroutine (which writes its diagnostics) and the test.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func meanRequest() *Request {
	return &Request{
		Dataset:      "census",
		Program:      &ProgramSpec{Type: "mean", Col: 0},
		Mode:         "tight",
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:      5,
		Seed:         3,
	}
}

// readAuditRecords decodes every record in every segment under dir,
// oldest first. The chain itself is checked by audit.Verify; this is the
// test's raw view of what got written.
func readAuditRecords(t *testing.T, dir string) []audit.Record {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "audit-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []audit.Record
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			var rec audit.Record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("decode audit record: %v", err)
			}
			recs = append(recs, rec)
		}
		f.Close()
	}
	return recs
}

// TestQueryTraceCrossProcess is the tentpole's end-to-end check at the
// package level: one query through a server backed by an out-of-process
// worker must yield ONE trace whose span tree includes the worker's own
// setup and execute spans, an audit record carrying the same trace id,
// and — because unsafe traces are on — an explicit unsafe_raw record
// carrying the raw-duration line, which reaches no other sink.
func TestQueryTraceCrossProcess(t *testing.T) {
	addr := startWorker(t)
	dir := t.TempDir()
	alog, err := audit.Open(dir, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer alog.Close()
	var serverLog lockedBuf
	client, srv := startServerCfg(t, 100, ServerConfig{
		WorkerAddrs:  []string{addr},
		Audit:        alog,
		UnsafeTraces: true,
		Logger:       log.New(&serverLog, "", 0),
	})

	resp, err := client.Query(meanRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !traceIDRe.MatchString(resp.TraceID) {
		t.Fatalf("Response.TraceID = %q, want 32 lowercase hex", resp.TraceID)
	}

	snaps := srv.Recorder().Traces()
	if len(snaps) != 1 {
		t.Fatalf("Traces() returned %d traces, want 1", len(snaps))
	}
	tr := snaps[0]
	if tr.ID != resp.TraceID {
		t.Errorf("trace id %q does not match response trace id %q", tr.ID, resp.TraceID)
	}
	if tr.Outcome != "ok" {
		t.Errorf("outcome = %q, want ok", tr.Outcome)
	}
	wantProcess := "worker:" + addr
	stages := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.Process == wantProcess {
			stages[sp.Stage] = true
			if sp.Status != telemetry.StatusOK {
				t.Errorf("worker span %s status = %q, want ok", sp.Stage, sp.Status)
			}
		}
	}
	if !stages[telemetry.StageWorkerSetup] || !stages[telemetry.StageWorkerExecute] {
		t.Errorf("worker spans missing from merged trace: got stages %v, want %s and %s",
			stages, telemetry.StageWorkerSetup, telemetry.StageWorkerExecute)
	}

	// The query must have settled into the audit chain before the response
	// reached the client: a query record with the same trace id, plus the
	// unsafe_raw record for the raw trace line. The chain must verify.
	rep, err := audit.Verify(dir)
	if err != nil {
		t.Fatalf("audit verify: %v", err)
	}
	if rep.Records < 2 {
		t.Fatalf("audit chain has %d records, want >= 2 (query + unsafe trace)", rep.Records)
	}
	if rep.UnsafeRecords != 1 {
		t.Errorf("UnsafeRecords = %d, want 1", rep.UnsafeRecords)
	}
	var query, unsafe *audit.Record
	for i, rec := range readAuditRecords(t, dir) {
		rec := rec
		switch rec.Type {
		case audit.TypeQuery:
			query = &rec
		case audit.TypeUnsafeTrace:
			unsafe = &rec
		default:
			t.Errorf("record %d has unexpected type %q", i, rec.Type)
		}
	}
	if query == nil {
		t.Fatal("no query record in audit log")
	}
	if query.TraceID != resp.TraceID {
		t.Errorf("audit record trace id = %q, want %q", query.TraceID, resp.TraceID)
	}
	if query.Dataset != "census" || query.Outcome != "ok" {
		t.Errorf("audit record = %+v, want dataset census outcome ok", query)
	}
	if query.EpsilonCharged != 5 {
		t.Errorf("audit EpsilonCharged = %v, want 5", query.EpsilonCharged)
	}
	if query.Blocks <= 0 {
		t.Errorf("audit Blocks = %d, want > 0", query.Blocks)
	}
	if query.LatencyBucketMillis == 0 {
		t.Errorf("audit LatencyBucketMillis = 0, want a bucket bound or -1")
	}
	if unsafe == nil {
		t.Fatal("no unsafe_raw record in audit log despite UnsafeTraces being set")
	}
	if !unsafe.UnsafeRaw {
		t.Error("unsafe trace record does not set unsafe_raw")
	}
	if unsafe.TraceID != resp.TraceID {
		t.Errorf("unsafe record trace id = %q, want %q", unsafe.TraceID, resp.TraceID)
	}
	if unsafe.Detail == "" || !regexp.MustCompile(`worker\.execute@worker:`).MatchString(unsafe.Detail) {
		t.Errorf("unsafe record detail %q does not carry the worker span line", unsafe.Detail)
	}
	// The audit chain is the raw line's only sink.
	if got := serverLog.String(); strings.Contains(got, resp.TraceID) {
		t.Errorf("server log carries the raw trace line: %q", got)
	}

	// The live view must be empty once the query settled.
	if live := srv.Recorder().Live(); len(live) != 0 {
		t.Errorf("LiveQueries() = %v after query settled, want empty", live)
	}
}

// TestLiveQueryIsTheOpenTrace watches a query from outside while it runs.
// The live view is the flight recorder's set of open traces, so a query
// wedged in its blocks stage is there exactly once, under its trace id and
// tenant, until the watchdog flags it (counted once). After it settles it
// has left the live view, and the same trace id heads /traces and /flight.
func TestLiveQueryIsTheOpenTrace(t *testing.T) {
	// The gate holds every block and ignores the query's cancellation, the
	// way a wedged worker does: a chamber that honours the short
	// QueryTimeout (slowWrapper) would end the query before the watchdog's
	// first one-second sweep could see it.
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(free)
	wedged := func(inner sandbox.Chamber) sandbox.Chamber {
		return chamberFunc(func(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
			<-release
			return inner.Execute(context.WithoutCancel(ctx), block)
		})
	}
	srv, _, keys := startTenantServer(t, 100, ServerConfig{
		ChamberWrapper: wedged,
		QueryTimeout:   50 * time.Millisecond,
	})
	slow := srv.Telemetry().Counter("compman.queries_slow")

	req := meanQuery(0.5, 250)
	req.Op = OpQuery
	req.APIKey = keys["alice"]
	done := make(chan Response, 1)
	go func() { done <- srv.dispatch(req) }()

	var live telemetry.InflightSnapshot
	for deadline := time.Now().Add(10 * time.Second); !live.Stuck; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never flagged the wedged query; live view %+v", srv.Recorder().Live())
		}
		if queries := srv.Recorder().Live(); len(queries) == 1 {
			live = queries[0]
		} else if len(queries) > 1 {
			t.Fatalf("live view holds %d queries, want 1: %+v", len(queries), queries)
		}
	}
	if live.Stage != telemetry.StageBlocks || live.Tenant != "alice" || live.Dataset != "census" {
		t.Errorf("live entry = %+v, want census/alice in stage blocks", live)
	}
	// Past the next sweep the query is still stuck, and still counted once.
	time.Sleep(1100 * time.Millisecond)
	if queries := srv.Recorder().Live(); len(queries) != 1 || !queries[0].Stuck || queries[0].ID != live.ID {
		t.Errorf("live view after another sweep = %+v", queries)
	}
	if got := slow.Value(); got != 1 {
		t.Errorf("compman.queries_slow = %d, want 1", got)
	}

	free()
	var resp Response
	select {
	case resp = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("query did not settle after release")
	}
	if resp.TraceID != live.ID || resp.Tenant != live.Tenant {
		t.Errorf("live entry %s/%s, response %s/%s", live.ID, live.Tenant, resp.TraceID, resp.Tenant)
	}
	if queries := srv.Recorder().Live(); len(queries) != 0 {
		t.Errorf("live view after settle = %+v, want empty", queries)
	}
	traces, flights := srv.Recorder().Traces(), srv.Recorder().Snapshots()
	if len(traces) != 1 || len(flights) != 1 || traces[0].ID != resp.TraceID || flights[0].ID != resp.TraceID {
		t.Fatalf("after settle: %d traces, %d flights, want exactly one each with id %s", len(traces), len(flights), resp.TraceID)
	}
	if got := slow.Value(); got != 1 {
		t.Errorf("compman.queries_slow = %d after settle, want 1", got)
	}
}

// TestQueryTraceLocalChamber checks the single-node path: no workers, but
// every response still carries a fresh random trace id and the trace ring
// still records the query.
func TestQueryTraceLocalChamber(t *testing.T) {
	client, srv := startServer(t, 100)
	first, err := client.Query(meanRequest())
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Query(meanRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !traceIDRe.MatchString(first.TraceID) || !traceIDRe.MatchString(second.TraceID) {
		t.Fatalf("trace ids %q / %q, want 32 lowercase hex", first.TraceID, second.TraceID)
	}
	if first.TraceID == second.TraceID {
		t.Fatalf("two queries share trace id %q", first.TraceID)
	}
	snaps := srv.Recorder().Traces()
	if len(snaps) != 2 {
		t.Fatalf("Traces() returned %d traces, want 2", len(snaps))
	}
	// Newest first: the second query's trace leads.
	if snaps[0].ID != second.TraceID || snaps[1].ID != first.TraceID {
		t.Errorf("trace ring order = [%s %s], want [%s %s]",
			snaps[0].ID, snaps[1].ID, second.TraceID, first.TraceID)
	}
	for _, sn := range snaps {
		for _, sp := range sn.Spans {
			if sp.Process != "" {
				t.Errorf("local-chamber trace has remote span %+v", sp)
			}
		}
	}
}

// TestBudgetRefusedTraceOutcome pins the outcome vocabulary end to end: a
// query refused for budget shows up in the trace ring as budget_refused.
func TestBudgetRefusedTraceOutcome(t *testing.T) {
	client, srv := startServer(t, 1)
	req := meanRequest()
	req.Epsilon = 5 // over the total budget of 1
	if _, err := client.Query(req); err == nil {
		t.Fatal("query over budget succeeded")
	}
	snaps := srv.Recorder().Traces()
	if len(snaps) != 1 {
		t.Fatalf("Traces() returned %d traces, want 1", len(snaps))
	}
	if snaps[0].Outcome != "budget_refused" {
		t.Errorf("outcome = %q, want budget_refused", snaps[0].Outcome)
	}
}

func TestQueryOutcomeClassification(t *testing.T) {
	cases := []struct {
		name string
		resp Response
		want string
	}{
		{"ok", Response{OK: true}, "ok"},
		{"degraded", Response{OK: true, FailedBlocks: 2}, "degraded"},
		{"budget refused", Response{Error: dp.ErrBudgetExhausted.Error() + ": census"}, "budget_refused"},
		{"aborted with charge", Response{Error: "deadline exceeded", EpsilonCharged: 1}, "aborted"},
		{"plain error", Response{Error: "no such dataset"}, "error"},
	}
	for _, tc := range cases {
		if got := queryOutcome(&tc.resp); got != tc.want {
			t.Errorf("%s: queryOutcome = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestSessionOutcomeClassification(t *testing.T) {
	cases := []struct {
		name string
		resp Response
		want string
	}{
		{"ok", Response{OK: true, Session: []SessionResult{{}, {}}}, "ok"},
		{"member failure", Response{OK: true, Session: []SessionResult{{}, {Error: "boom"}}}, "degraded"},
		{"member degraded", Response{OK: true, Session: []SessionResult{{FailedBlocks: 1}}}, "degraded"},
		{"budget refused", Response{Error: dp.ErrBudgetExhausted.Error() + ": census"}, "budget_refused"},
		{"error", Response{Error: "bad batch"}, "error"},
	}
	for _, tc := range cases {
		if got := queryOutcome(&tc.resp); got != tc.want {
			t.Errorf("%s: queryOutcome = %q, want %q", tc.name, got, tc.want)
		}
	}
}
