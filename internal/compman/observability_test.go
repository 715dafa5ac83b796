package compman

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gupt/internal/telemetry"
	"gupt/internal/telemetry/audit"
)

// TestFanoutQueryObservability is the PR's served-path acceptance check:
// a query fanned out across four workers must leave a trace whose span
// tree shows the queue wait, the scheduler's admit decision, and one
// dispatch span per observed block result attributed to the worker that
// ran it — and the flight recorder must hold the same query with its ε
// cost, block count, and per-worker fan-out tallies.
func TestFanoutQueryObservability(t *testing.T) {
	w1, w2, w3, w4 := startWorker(t), startWorker(t), startWorker(t), startWorker(t)
	workers := []string{w1, w2, w3, w4}
	client, srv := startServerCfg(t, 100, ServerConfig{
		WorkerAddrs: workers,
		WorkerConns: 2,
	})

	const eps = 0.5
	resp, err := client.Query(meanQuery(eps, 250)) // 5000 rows → 20 blocks
	if err != nil {
		t.Fatal(err)
	}

	snaps := srv.Recorder().Traces()
	if len(snaps) != 1 {
		t.Fatalf("Traces() returned %d traces, want 1", len(snaps))
	}
	tr := snaps[0]
	if tr.ID != resp.TraceID || tr.Outcome != "ok" {
		t.Fatalf("trace = id %q outcome %q, want id %q outcome ok", tr.ID, tr.Outcome, resp.TraceID)
	}

	// The scheduler's self-observation: a queue-wait span and an admitted
	// decision, both recorded by the server process itself.
	var sawQueue, sawDecision bool
	dispatchByWorker := map[string]int{}
	for _, sp := range tr.Spans {
		switch sp.Stage {
		case telemetry.StageSchedQueue:
			sawQueue = sp.Status == telemetry.StatusOK
		case telemetry.StageSchedDecision:
			sawDecision = sp.Status == telemetry.StatusOK
		case telemetry.StageFanoutDispatch:
			if !strings.HasPrefix(sp.Process, "worker:") {
				t.Errorf("dispatch span attributed to %q, want worker:<addr>", sp.Process)
			}
			dispatchByWorker[sp.Process]++
		}
	}
	if !sawQueue {
		t.Error("trace has no ok sched.queue span")
	}
	if !sawDecision {
		t.Error("trace has no admitted sched.decision span")
	}
	total := 0
	for proc, n := range dispatchByWorker {
		addr := strings.TrimPrefix(proc, "worker:")
		found := false
		for _, w := range workers {
			if w == addr {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("dispatch span names unknown worker %q", proc)
		}
		total += n
	}
	// Every block's winning result records one dispatch span; losing race
	// duplicates record nothing, so the total is exactly the block count
	// (no stragglers or failovers fire against healthy local workers).
	if total != resp.NumBlocks {
		t.Errorf("observed %d dispatch spans, want %d (one per block)", total, resp.NumBlocks)
	}
	if len(dispatchByWorker) < 2 {
		t.Errorf("all %d blocks landed on %d worker(s); fan-out attribution is vacuous", total, len(dispatchByWorker))
	}

	// The same query in the flight recorder, with cost and fan-out tallies.
	flights := srv.Recorder().Snapshots()
	if len(flights) != 1 {
		t.Fatalf("Flights() returned %d records, want 1", len(flights))
	}
	fl := flights[0]
	if fl.ID != resp.TraceID {
		t.Errorf("flight id %q, want %q", fl.ID, resp.TraceID)
	}
	if math.Abs(fl.EpsilonCharged-eps) > 1e-9 || fl.Blocks != resp.NumBlocks {
		t.Errorf("flight cost = ε %v over %d blocks, want ε %v over %d",
			fl.EpsilonCharged, fl.Blocks, eps, resp.NumBlocks)
	}
	var dispatches int
	for _, w := range fl.Workers {
		if !strings.HasPrefix(w.Process, "worker:") {
			t.Errorf("flight worker %q not attributed", w.Process)
		}
		dispatches += w.Dispatches
	}
	if dispatches != resp.NumBlocks {
		t.Errorf("flight worker dispatches = %d, want %d", dispatches, resp.NumBlocks)
	}
}

// TestRefusalObservability is the refused-path acceptance check: a query
// the scheduler turns away must be as observable as a served one — a
// trace in the ring whose sched.decision span carries the refusal status,
// a flight record with the reason and retry hint, and an audit record
// carrying both so the refusal is part of the tamper-evident history.
func TestRefusalObservability(t *testing.T) {
	dir := t.TempDir()
	alog, err := audit.Open(dir, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer alog.Close()
	c0, srv := startServerCfg(t, 100, ServerConfig{
		ChamberWrapper: slowWrapper(200 * time.Millisecond),
		Sched:          SchedConfig{MaxConcurrent: 1, MaxQueue: 1},
		Audit:          alog,
	})
	addr := srv.Addr().String()
	c0.Close()

	const queries = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				return
			}
			defer cl.Close()
			<-start
			req := meanQuery(0.5, 2000)
			req.Seed = seed
			_, _ = cl.Query(req)
		}(int64(i))
	}
	close(start)
	wg.Wait()

	refused := srv.Telemetry().Counter("compman.queries_overloaded").Value()
	if refused == 0 {
		t.Fatal("no query was refused — overload never materialized (vacuous test)")
	}

	// Refused queries get traces too, with the verdict on the decision span.
	var refusedTraces int
	for _, tr := range srv.Recorder().Traces() {
		if tr.Outcome != "overloaded" {
			continue
		}
		refusedTraces++
		var verdict string
		for _, sp := range tr.Spans {
			if sp.Stage == telemetry.StageSchedDecision {
				verdict = sp.Status
			}
		}
		if verdict != telemetry.StatusRefusedBusy && verdict != telemetry.StatusRefusedExpired {
			t.Errorf("refused trace %s decision span status = %q", tr.ID, verdict)
		}
	}
	if int64(refusedTraces) != refused {
		t.Errorf("traces show %d refusals, scheduler counted %d", refusedTraces, refused)
	}

	// The flight recorder names the reason and the retry hint, at zero ε.
	var refusedFlights int
	for _, fl := range srv.Recorder().Snapshots() {
		if fl.Outcome != "overloaded" {
			continue
		}
		refusedFlights++
		if fl.Reason != "queue_full" && fl.Reason != "deadline_unmeetable" {
			t.Errorf("refused flight reason = %q", fl.Reason)
		}
		if fl.RetryAfterMillis < 1 {
			t.Errorf("refused flight carries no retry hint: %+v", fl)
		}
		if fl.EpsilonCharged != 0 {
			t.Errorf("refusal charged ε %v in the flight record", fl.EpsilonCharged)
		}
	}
	if int64(refusedFlights) != refused {
		t.Errorf("flight recorder shows %d refusals, scheduler counted %d", refusedFlights, refused)
	}

	// Satellite 1: every scheduler refusal is on the audit record with its
	// reason and retry hint, before any ε moved.
	if err := alog.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := audit.Read(dir, func(rec audit.Record) bool {
		return rec.Outcome == "overloaded"
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != refused {
		t.Fatalf("audit log holds %d refusal records, want %d", len(recs), refused)
	}
	for _, rec := range recs {
		if rec.Reason != "queue_full" && rec.Reason != "deadline_unmeetable" {
			t.Errorf("audit refusal reason = %q", rec.Reason)
		}
		if rec.RetryAfterMillis < 1 {
			t.Errorf("audit refusal has no retry hint: %+v", rec)
		}
		if rec.EpsilonCharged != 0 {
			t.Errorf("audit refusal charged ε: %+v", rec)
		}
		if rec.Dataset != "census" {
			t.Errorf("audit refusal dataset = %q", rec.Dataset)
		}
	}
}
