package compman

import (
	"context"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gupt/internal/faultinject"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry/audit"
)

// chamberFunc adapts a function to sandbox.Chamber for test wrappers.
type chamberFunc func(context.Context, []mathutil.Vec) (mathutil.Vec, error)

func (f chamberFunc) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return f(ctx, block)
}

// faultWrapper builds a ServerConfig.ChamberWrapper injecting the given
// schedule around every chamber the server creates.
func faultWrapper(sched *faultinject.Schedule) func(sandbox.Chamber) sandbox.Chamber {
	return func(inner sandbox.Chamber) sandbox.Chamber {
		return &faultinject.Chamber{Inner: inner, Schedule: sched, OutputDims: 1}
	}
}

func meanQuery(eps float64, blockSize int) *Request {
	return &Request{
		Dataset:      "census",
		Program:      &ProgramSpec{Type: "mean", Col: 0},
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:      eps,
		BlockSize:    blockSize,
		Seed:         7,
	}
}

// A query whose chambers crash and emit garbage on a fixed seed must still
// succeed — degraded, with the failures visible in the response, the
// operator stats, and exactly its ε (no more) gone from the ledger.
func TestChaosQueryDegradesUnderChamberFaults(t *testing.T) {
	sched := &faultinject.Schedule{
		Seed: 11,
		Rates: map[faultinject.Kind]float64{
			faultinject.CrashBefore: 0.15,
			faultinject.Garbage:     0.15,
			faultinject.WrongArity:  0.10,
		},
	}
	c, _ := startServerCfg(t, 10, ServerConfig{ChamberWrapper: faultWrapper(sched)})

	const eps = 0.5
	resp, err := c.Query(meanQuery(eps, 250)) // 5000 rows → 20 blocks
	if err != nil {
		t.Fatal(err)
	}
	if resp.FailedBlocks == 0 {
		t.Fatal("fault schedule injected nothing — vacuous chaos test")
	}
	if resp.FailedBlocks >= resp.NumBlocks {
		t.Fatalf("all %d blocks failed; expected a degraded, not destroyed, query", resp.NumBlocks)
	}
	if math.IsNaN(resp.Output[0]) || math.IsInf(resp.Output[0], 0) {
		t.Errorf("garbage leaked into the release: %v", resp.Output)
	}
	if resp.EpsilonCharged != eps {
		t.Errorf("EpsilonCharged = %v, want %v", resp.EpsilonCharged, eps)
	}
	rem, err := c.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-(10-eps)) > 1e-9 {
		t.Errorf("remaining budget %v, want %v", rem, 10-eps)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueriesDegraded != 1 {
		t.Errorf("QueriesDegraded = %d, want 1", stats.QueriesDegraded)
	}
	if stats.BlocksSubstituted != int64(resp.FailedBlocks) {
		t.Errorf("BlocksSubstituted = %d, want %d", stats.BlocksSubstituted, resp.FailedBlocks)
	}
}

// Budget-charged-on-abort (paper §6.2): a query that fails after its charge
// settled must consume its ε — an analyst cannot convert forced failures
// into refunded budget. Covers both abort paths (query deadline, quality
// guard) and contrasts them with a pre-charge budget refusal, which
// consumes nothing.
func TestBudgetChargedOnAbort(t *testing.T) {
	const total = 10.0
	cases := []struct {
		name        string
		cfg         func() ServerConfig
		eps         float64
		wantCharged bool
	}{
		{
			name: "hang past query deadline",
			cfg: func() ServerConfig {
				sched := &faultinject.Schedule{
					Plan:    []faultinject.Kind{faultinject.Hang},
					HangFor: 10 * time.Second,
				}
				return ServerConfig{
					ChamberWrapper: faultWrapper(sched),
					QueryTimeout:   150 * time.Millisecond,
				}
			},
			eps:         1,
			wantCharged: true,
		},
		{
			name: "all blocks crash past quality guard",
			cfg: func() ServerConfig {
				sched := &faultinject.Schedule{Plan: []faultinject.Kind{faultinject.CrashBefore}}
				return ServerConfig{
					ChamberWrapper: faultWrapper(sched),
					MaxFailFrac:    0.5,
				}
			},
			eps:         1,
			wantCharged: true,
		},
		{
			name:        "budget refusal consumes nothing",
			cfg:         func() ServerConfig { return ServerConfig{} },
			eps:         total + 1,
			wantCharged: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := startServerCfg(t, total, tc.cfg())
			_, err := c.Query(meanQuery(tc.eps, 250))
			if err == nil {
				t.Fatal("query succeeded; expected an abort")
			}
			var qe *QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("error %T is not a *QueryError: %v", err, err)
			}
			rem, err := c.RemainingBudget("census")
			if err != nil {
				t.Fatal(err)
			}
			stats, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantCharged {
				if qe.EpsilonCharged != tc.eps {
					t.Errorf("EpsilonCharged = %v, want %v (abort must keep the charge)", qe.EpsilonCharged, tc.eps)
				}
				if math.Abs(rem-(total-tc.eps)) > 1e-9 {
					t.Errorf("remaining budget %v, want %v", rem, total-tc.eps)
				}
				if stats.QueriesAborted != 1 {
					t.Errorf("QueriesAborted = %d, want 1", stats.QueriesAborted)
				}
			} else {
				if qe.EpsilonCharged != 0 {
					t.Errorf("EpsilonCharged = %v, want 0 (refusal happens pre-charge)", qe.EpsilonCharged)
				}
				if rem != total {
					t.Errorf("remaining budget %v, want untouched %v", rem, total)
				}
				if stats.BudgetRefusals != 1 {
					t.Errorf("BudgetRefusals = %d, want 1", stats.BudgetRefusals)
				}
				if stats.QueriesAborted != 0 {
					t.Errorf("QueriesAborted = %d, want 0", stats.QueriesAborted)
				}
			}
		})
	}
}

// A transient failure burst must cost one retry, not the query — and the
// retry must not re-charge the budget.
func TestQueryRetryRecoversTransientFailure(t *testing.T) {
	// 5000 rows minus the 10% aged carve-out → 4500 private rows → 18
	// blocks at BlockSize 250.
	const blocks = 18
	var calls atomic.Int64
	wrapper := func(inner sandbox.Chamber) sandbox.Chamber {
		return chamberFunc(func(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
			if calls.Add(1) <= blocks {
				return nil, errors.New("transient chamber failure")
			}
			return inner.Execute(ctx, block)
		})
	}
	c, _ := startServerCfg(t, 10, ServerConfig{
		ChamberWrapper:  wrapper,
		MaxQueryRetries: 1,
		MaxFailFrac:     0.5,
	})

	const eps = 1.0
	resp, err := c.Query(meanQuery(eps, 250)) // exactly `blocks` blocks
	if err != nil {
		t.Fatalf("query did not recover via retry: %v", err)
	}
	if resp.NumBlocks != blocks {
		t.Fatalf("NumBlocks = %d, want %d (fault window mistargeted)", resp.NumBlocks, blocks)
	}
	if resp.FailedBlocks != 0 {
		t.Errorf("FailedBlocks = %d after recovery, want 0", resp.FailedBlocks)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueryRetries != 1 {
		t.Errorf("QueryRetries = %d, want 1", stats.QueryRetries)
	}
	if stats.QueriesOK != 1 || stats.QueriesAborted != 0 {
		t.Errorf("QueriesOK = %d, QueriesAborted = %d; want 1, 0", stats.QueriesOK, stats.QueriesAborted)
	}
	rem, err := c.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-(10-eps)) > 1e-9 {
		t.Errorf("remaining budget %v, want %v (retry must not re-charge)", rem, 10-eps)
	}
}

// A negative retry configuration must clamp to "run once", not skip
// execution entirely — skipping returned a nil result that crashed the
// query handler (found by probing `guptd -retries -1`).
func TestNegativeRetryConfigStillExecutes(t *testing.T) {
	c, _ := startServerCfg(t, 10, ServerConfig{MaxQueryRetries: -1})
	resp, err := c.Query(meanQuery(0.5, 250))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Output) != 1 {
		t.Errorf("output = %v, want one dimension", resp.Output)
	}
}

// A session's ε is charged atomically before anything runs; a member query
// that aborts must keep its allocation consumed while the rest of the batch
// completes (§5.2 + §6.2).
func TestSessionPartialFailureKeepsFullCharge(t *testing.T) {
	const blocks = 9 // per session query: 4500 private rows / BlockSize 500
	var calls atomic.Int64
	wrapper := func(inner sandbox.Chamber) sandbox.Chamber {
		return chamberFunc(func(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
			if calls.Add(1) <= blocks {
				return nil, errors.New("node down")
			}
			return inner.Execute(ctx, block)
		})
	}
	c, _ := startServerCfg(t, 10, ServerConfig{
		ChamberWrapper: wrapper,
		MaxFailFrac:    0.5,
	})

	const total = 1.0
	results, err := c.Session("census", &SessionSpec{
		TotalEpsilon: total,
		Queries: []SessionQuery{
			{Program: ProgramSpec{Type: "mean", Col: 0}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}}, BlockSize: 500},
			{Program: ProgramSpec{Type: "mean", Col: 0}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}}, BlockSize: 500},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Error == "" {
		t.Error("first query survived the fault burst; expected an abort in its slot")
	}
	if results[0].EpsilonSpent <= 0 {
		t.Errorf("aborted query reports EpsilonSpent = %v; its allocation must stay consumed", results[0].EpsilonSpent)
	}
	if results[1].Error != "" {
		t.Errorf("second query failed: %s", results[1].Error)
	}
	if len(results[1].Output) != 1 {
		t.Errorf("second query output = %v, want one dimension", results[1].Output)
	}
	rem, err := c.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-(10-total)) > 1e-9 {
		t.Errorf("remaining budget %v, want %v (whole session charged atomically)", rem, 10-total)
	}
}

// A session whose members substitute blocks is degraded everywhere it is
// recorded: the audit outcome, the stats op and /metrics agree, and
// BlocksSubstituted counts every member's substitutions.
func TestChaosSessionStatsAgreeWithAudit(t *testing.T) {
	sched := &faultinject.Schedule{
		Seed: 13,
		Rates: map[faultinject.Kind]float64{
			faultinject.CrashBefore: 0.15,
			faultinject.Garbage:     0.10,
		},
	}
	dir := t.TempDir()
	alog, err := audit.Open(dir, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer alog.Close()
	c, srv := startServerCfg(t, 10, ServerConfig{ChamberWrapper: faultWrapper(sched), Audit: alog})

	member := func(seed int64) SessionQuery {
		return SessionQuery{
			Program:      ProgramSpec{Type: "mean", Col: 0},
			OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
			BlockSize:    250,
			Seed:         seed,
		}
	}
	results, err := c.Session("census", &SessionSpec{TotalEpsilon: 1, Queries: []SessionQuery{member(1), member(2)}})
	if err != nil {
		t.Fatal(err)
	}
	substituted := 0
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("member %d failed: %s", i, r.Error)
		}
		substituted += r.FailedBlocks
	}
	if substituted == 0 {
		t.Fatal("fault schedule injected nothing — vacuous chaos test")
	}

	var outcomes []string
	for _, rec := range readAuditRecords(t, dir) {
		if rec.Type == audit.TypeQuery {
			outcomes = append(outcomes, rec.Outcome)
		}
	}
	if len(outcomes) != 1 || outcomes[0] != "degraded" {
		t.Fatalf("audit outcomes = %v, want [degraded]", outcomes)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueriesOK != 1 || stats.QueriesDegraded != 1 {
		t.Errorf("QueriesOK = %d, QueriesDegraded = %d; the audit says one degraded session",
			stats.QueriesOK, stats.QueriesDegraded)
	}
	if stats.BlocksSubstituted != int64(substituted) {
		t.Errorf("BlocksSubstituted = %d, members substituted %d", stats.BlocksSubstituted, substituted)
	}
	if got := srv.Telemetry().Counter("compman.queries_degraded").Value(); got != 1 {
		t.Errorf("compman.queries_degraded = %d, want 1", got)
	}
}

// Wire-level chaos: a faultinject.Proxy corrupts, truncates, stalls and
// severs worker replies between the pool and a real worker daemon. Every
// query must still come back well-formed — either a private answer with
// finite output or a charged error — and the ledger must account exactly
// for the charges.
func TestWorkerProtocolChaos(t *testing.T) {
	worker := NewWorker(WorkerConfig{})
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go worker.Serve(wl)
	t.Cleanup(func() { worker.Close() })

	proxy := &faultinject.Proxy{
		Upstream: wl.Addr().String(),
		Schedule: &faultinject.ProtoSchedule{
			Seed: 5,
			Rates: map[faultinject.ProtoFault]float64{
				faultinject.ProtoCorrupt:    0.10,
				faultinject.ProtoTruncate:   0.05,
				faultinject.ProtoDisconnect: 0.05,
				faultinject.ProtoStall:      0.10,
			},
			StallFor: 5 * time.Millisecond,
		},
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	const total = 10.0
	c, _ := startServerCfg(t, total, ServerConfig{
		WorkerAddrs:  []string{proxy.Addr().String()},
		BlockTimeout: 2 * time.Second,
	})

	const queries = 5
	const eps = 0.5
	charged := 0.0
	for i := 0; i < queries; i++ {
		req := meanQuery(eps, 250)
		req.Seed = int64(i)
		resp, err := c.Query(req)
		if err != nil {
			// An abort is acceptable under chaos, but it must be a
			// well-formed, charge-preserving refusal.
			var qe *QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("query %d: malformed failure %T: %v", i, err, err)
			}
			charged += qe.EpsilonCharged
			continue
		}
		charged += resp.EpsilonCharged
		if len(resp.Output) != 1 || math.IsNaN(resp.Output[0]) || math.IsInf(resp.Output[0], 0) {
			t.Errorf("query %d: corrupted output %v", i, resp.Output)
		}
	}
	if charged == 0 {
		t.Fatal("no query charged any budget — chaos destroyed the whole run")
	}
	rem, err := c.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-(total-charged)) > 1e-9 {
		t.Errorf("ledger off: remaining %v + charged %v != total %v", rem, charged, total)
	}
	if got := proxy.Schedule.Counts(); len(got) < 2 {
		t.Errorf("proxy injected too few fault kinds to be meaningful: %v", got)
	}
}
