package compman

import (
	"context"
	"math"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"gupt/internal/faultinject"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
)

// startKillableWorker is startWorker with an explicit kill switch, for
// tests that take a worker down mid-fleet rather than at cleanup.
func startKillableWorker(t *testing.T) (addr string, kill func()) {
	t.Helper()
	return startWorkerAt(t, "127.0.0.1:0")
}

// startWorkerAt is startKillableWorker listening on addr, for tests that
// start a worker where the pool already expects one.
func startWorkerAt(t *testing.T, listen string) (addr string, kill func()) {
	t.Helper()
	w := NewWorker(WorkerConfig{})
	l, err := net.Listen("tcp", listen)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Serve(l)
	}()
	var once sync.Once
	kill = func() {
		once.Do(func() {
			w.Close()
			wg.Wait()
		})
	}
	t.Cleanup(kill)
	return l.Addr().String(), kill
}

func fanoutQuery(t *testing.T, cfg ServerConfig, seed int64) *Response {
	t.Helper()
	c, _ := startServerCfg(t, 100, cfg)
	req := meanQuery(0.5, 250)
	req.Seed = seed
	resp, err := c.Query(req)
	if err != nil {
		t.Fatalf("query (cfg %+v): %v", cfg.WorkerAddrs, err)
	}
	return resp
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The core acceptance invariant for sharding: the same seeded query
// answered locally, by a single worker, and by a four-worker fleet is
// bit-identical. All randomness (partition shuffle, Laplace draws) lives
// on the computation manager; workers only evaluate blocks, so block→
// worker placement must be output-invisible.
func TestFanoutBitIdentity(t *testing.T) {
	w1 := startWorker(t)
	w2 := startWorker(t)
	w3 := startWorker(t)
	w4 := startWorker(t)

	local := fanoutQuery(t, ServerConfig{}, 42)
	single := fanoutQuery(t, ServerConfig{WorkerAddrs: []string{w1}}, 42)
	fleet := fanoutQuery(t, ServerConfig{
		WorkerAddrs: []string{w1, w2, w3, w4},
		WorkerConns: 2,
	}, 42)

	for _, resp := range []*Response{local, single, fleet} {
		if resp.FailedBlocks != 0 {
			t.Fatalf("healthy run substituted %d blocks", resp.FailedBlocks)
		}
	}
	if !bitsEqual(local.Output, single.Output) {
		t.Errorf("1-worker output %v differs from local %v", single.Output, local.Output)
	}
	if !bitsEqual(local.Output, fleet.Output) {
		t.Errorf("4-worker output %v differs from local %v", fleet.Output, local.Output)
	}
}

func rankAddrs(addrs []string, idx int) []string {
	out := append([]string(nil), addrs...)
	sort.SliceStable(out, func(a, b int) bool {
		return rendezvousScore(out[a], idx) > rendezvousScore(out[b], idx)
	})
	return out
}

// Rendezvous assignment invariants, on the pure ranking function: the
// per-block worker ranking ignores configuration order, and removing one
// worker moves only the blocks that lived on it — every other block keeps
// its home (no rebalancing stampede on membership change).
func TestFanoutAssignmentStability(t *testing.T) {
	fleet := []string{"10.0.0.1:7200", "10.0.0.2:7200", "10.0.0.3:7200", "10.0.0.4:7200"}
	shuffled := []string{"10.0.0.3:7200", "10.0.0.1:7200", "10.0.0.4:7200", "10.0.0.2:7200"}
	const removed = "10.0.0.3:7200"
	survivors := []string{"10.0.0.1:7200", "10.0.0.2:7200", "10.0.0.4:7200"}

	homes := map[string]int{}
	for idx := 0; idx < 256; idx++ {
		rank := rankAddrs(fleet, idx)
		homes[rank[0]]++

		// Config-order independence: the whole ranking, not just the
		// home, is a pure function of (worker set, block index).
		perm := rankAddrs(shuffled, idx)
		for i := range rank {
			if rank[i] != perm[i] {
				t.Fatalf("block %d: ranking depends on address order: %v vs %v", idx, rank, perm)
			}
		}

		// Minimal-disruption on removal: survivors keep their blocks,
		// and an orphaned block falls to its next-ranked worker — the
		// same worker failover would have walked to.
		after := rankAddrs(survivors, idx)
		if rank[0] != removed {
			if after[0] != rank[0] {
				t.Fatalf("block %d moved from %s to %s though its home survived", idx, rank[0], after[0])
			}
		} else if after[0] != rank[1] {
			t.Fatalf("block %d orphaned to %s, want next-ranked %s", idx, after[0], rank[1])
		}
	}
	// Sanity: rendezvous actually spreads load — every worker is home to
	// a reasonable share of 256 blocks (fair share is 64).
	for _, addr := range fleet {
		if homes[addr] < 32 {
			t.Errorf("worker %s homes only %d/256 blocks", addr, homes[addr])
		}
	}
}

// Pool-level mirror of the stability test, against live workers: two
// pools configured with the same fleet in different order produce the
// same dispatch-order head for every block.
func TestFanoutPoolCandidateStability(t *testing.T) {
	addrs := []string{startWorker(t), startWorker(t), startWorker(t)}
	poolA, err := NewWorkerPool(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer poolA.Close()
	poolB, err := NewWorkerPool([]string{addrs[2], addrs[0], addrs[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer poolB.Close()

	for idx := 0; idx < 64; idx++ {
		a := poolA.candidates(idx, new(blockRun))
		b := poolB.candidates(idx, new(blockRun))
		if a[0].addr != b[0].addr {
			t.Fatalf("block %d homed on %s by one pool, %s by the other", idx, a[0].addr, b[0].addr)
		}
	}
}

// Satellite 4, the fleet chaos drill: one worker stalls every reply long
// past the straggler threshold, another is killed outright after the
// server connects. The merged answer must be bit-identical to a healthy
// single-worker run, with zero substituted blocks and the privacy budget
// charged exactly once.
func TestFanoutStragglerAndDeadWorker(t *testing.T) {
	w1 := startWorker(t)

	// w2 answers correctly but stalls every reply by 600ms.
	stalled := NewWorker(WorkerConfig{})
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go stalled.Serve(sl)
	t.Cleanup(func() { stalled.Close() })
	proxy := &faultinject.Proxy{
		Upstream: sl.Addr().String(),
		Schedule: &faultinject.ProtoSchedule{
			Plan:     []faultinject.ProtoFault{faultinject.ProtoStall},
			StallFor: 600 * time.Millisecond,
		},
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	w3, killW3 := startKillableWorker(t)

	const total = 100.0
	const eps = 0.5
	c, srv := startServerCfg(t, total, ServerConfig{
		WorkerAddrs:    []string{w1, proxy.Addr().String(), w3},
		StragglerAfter: 100 * time.Millisecond,
		BlockTimeout:   10 * time.Second,
	})
	killW3() // dies after the pool connected: blocks homed there must fail over

	req := meanQuery(eps, 250)
	req.Seed = 911
	resp, err := c.Query(req)
	if err != nil {
		t.Fatalf("chaos query: %v", err)
	}
	if resp.FailedBlocks != 0 {
		t.Errorf("chaos run substituted %d blocks; redundancy should have covered them", resp.FailedBlocks)
	}

	golden := fanoutQuery(t, ServerConfig{WorkerAddrs: []string{w1}}, 911)
	if !bitsEqual(resp.Output, golden.Output) {
		t.Errorf("chaos output %v differs from healthy single-worker output %v", resp.Output, golden.Output)
	}

	// Budget charged exactly once: duplicate dispatches and failovers are
	// transport events, invisible to the ledger.
	rem, err := c.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-(total-eps)) > 1e-9 {
		t.Errorf("remaining budget %v, want %v (exactly one charge)", rem, total-eps)
	}

	// The recovery machinery actually engaged: with 18 blocks over 3
	// workers it is vanishingly unlikely neither the stalled nor the dead
	// worker was home to any block.
	redispatch := srv.Telemetry().Counter("compman.pool.straggler_redispatch").Value()
	failovers := srv.Telemetry().Counter("compman.pool.failovers").Value()
	if redispatch+failovers == 0 {
		t.Error("no straggler redispatch and no failover happened — chaos never bit")
	}
}

// The pool resolves its metric handles once per registry, not once per
// block, so a registry handed to Instrument after the pool was built must
// still see every gauge and counter move: the pool's and a worker's
// in-flight gauges, a straggler duplicate, failovers, redials and a
// demotion with its unhealthy gauge.
func TestFanoutLateInstrumentStillCounts(t *testing.T) {
	healthy := startWorker(t)
	stalled := startWorker(t)
	proxy := &faultinject.Proxy{
		Upstream: stalled,
		Schedule: &faultinject.ProtoSchedule{
			Plan:     []faultinject.ProtoFault{faultinject.ProtoStall},
			StallFor: 500 * time.Millisecond,
		},
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	slow := proxy.Addr().String()
	dead, kill := startKillableWorker(t)
	addrs := []string{healthy, slow, dead}
	pool, err := NewWorkerPoolConfig(PoolConfig{Addrs: addrs, StragglerAfter: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	chamber := pool.Chamber(meanSpec, nil).(sandbox.BlockChamber)
	// homedOn is a block index ranked home, then second.
	homedOn := func(home, second string) int {
		for idx := 0; ; idx++ {
			if r := rankAddrs(addrs, idx); r[0] == home && r[1] == second {
				return idx
			}
		}
	}
	execute := func(idx int) {
		t.Helper()
		if out, err := chamber.ExecuteBlock(context.Background(), idx, workerBlock(5)); err != nil || out[0] != 2 {
			t.Fatalf("block %d: mean %v, %v; want 2", idx, out, err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	execute(homedOn(healthy, slow)) // before Instrument: nowhere to count
	execute(homedOn(dead, healthy)) // the slot the kill below breaks holds a connection
	tel := telemetry.NewRegistry()
	pool.Instrument(tel)

	inflight := tel.Gauge("compman.pool.inflight")
	slowInflight := tel.Gauge("compman.pool.worker.inflight." + metricLabel(slow))
	done := make(chan struct{})
	go func() {
		defer close(done)
		execute(homedOn(slow, healthy))
	}()
	waitFor("both in-flight gauges at 1", func() bool { return inflight.Value() == 1 && slowInflight.Value() == 1 })
	<-done
	waitFor("both in-flight gauges back at 0", func() bool { return inflight.Value() == 0 && slowInflight.Value() == 0 })

	kill()
	execute(homedOn(dead, healthy)) // fails over after one redial
	execute(homedOn(dead, healthy)) // a second failure in a row demotes it

	for name, want := range map[string]int64{
		"compman.pool.straggler_redispatch": 1,
		"compman.pool.failovers":            2,
		"compman.pool.redials":              2,
		"compman.pool.demotions":            1,
	} {
		if got := tel.Counter(name).Value(); got != want {
			t.Errorf("%s = %d after a late Instrument, want %d", name, got, want)
		}
	}
	if got := tel.Gauge("compman.pool.worker.unhealthy." + metricLabel(dead)).Value(); got != 1 {
		t.Errorf("the dead worker's unhealthy gauge = %d, want 1", got)
	}
}
