package main

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/faultinject"
	"gupt/internal/sandbox"
)

// End-to-end crash test over real sockets: a guptd-shaped server fans a
// query out to a worker daemon, and the worker is killed mid-query. The
// analyst must get a well-formed, degraded answer for exactly the one charge
// — never a hang, a torn response, an abort or a refund — and the operator
// stats must show the degradation.
func TestWorkerKilledMidQuery(t *testing.T) {
	// Dataset registered through guptd's own -dataset parsing path.
	var sb strings.Builder
	sb.WriteString("age\n")
	for i := 0; i < 600; i++ {
		sb.WriteString("40\n")
	}
	path := writeCSV(t, sb.String())
	reg := dataset.NewRegistry()
	const totalBudget = 2.0
	if err := registerSpec(reg, "census="+path+":budget=2:header"); err != nil {
		t.Fatal(err)
	}

	// Worker daemon whose chambers start slowly (100ms per block), leaving a
	// window to kill it while the query is in flight.
	worker := compman.NewWorker(compman.WorkerConfig{
		ChamberWrapper: func(inner sandbox.Chamber) sandbox.Chamber {
			return &faultinject.Chamber{
				Inner: inner,
				Schedule: &faultinject.Schedule{
					Plan:   []faultinject.Kind{faultinject.SlowStart},
					SlowBy: 100 * time.Millisecond,
				},
				OutputDims: 1,
			}
		},
	})
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go worker.Serve(wl)

	// The server, configured as guptd would be for cluster execution.
	srv := compman.NewServer(reg, compman.ServerConfig{
		WorkerAddrs: []string{wl.Addr().String()},
	})
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(sl)
	t.Cleanup(func() { srv.Close() })

	client, err := compman.Dial(sl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	// Fire the query, then kill the worker while its blocks execute.
	const eps = 1.0
	type reply struct {
		resp *compman.Response
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := client.Query(&compman.Request{
			Dataset:      "census",
			Program:      &compman.ProgramSpec{Type: "mean", Col: 0},
			OutputRanges: []compman.RangeSpec{{Lo: 0, Hi: 150}},
			Epsilon:      eps,
			BlockSize:    30, // 600 rows → 20 blocks ≈ 2s of slow-started work
		})
		done <- reply{resp, err}
	}()

	time.Sleep(250 * time.Millisecond) // a few blocks in
	if err := worker.Close(); err != nil {
		t.Fatal(err)
	}

	var r reply
	select {
	case r = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("query hung after worker death")
	}
	if r.err != nil {
		t.Fatalf("query failed with a dead worker: %v", r.err)
	}
	if r.resp.EpsilonCharged != eps {
		t.Errorf("EpsilonCharged = %v, want %v (worker death neither refunds nor re-charges)", r.resp.EpsilonCharged, eps)
	}
	if r.resp.FailedBlocks == 0 {
		t.Error("no block failed; the worker died after the query finished")
	}
	if len(r.resp.Output) != 1 || math.IsNaN(r.resp.Output[0]) || math.IsInf(r.resp.Output[0], 0) {
		t.Errorf("release = %v, want one finite value", r.resp.Output)
	}

	rem, err := client.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-(totalBudget-eps)) > 1e-9 {
		t.Errorf("remaining budget %v, want %v", rem, totalBudget-eps)
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueriesDegraded != 1 || stats.QueriesOK != 1 {
		t.Errorf("QueriesDegraded = %d, QueriesOK = %d; want 1, 1", stats.QueriesDegraded, stats.QueriesOK)
	}
	if stats.QueriesAborted != 0 || stats.QueriesFailed != 0 {
		t.Errorf("QueriesAborted = %d, QueriesFailed = %d; want 0, 0", stats.QueriesAborted, stats.QueriesFailed)
	}
}
