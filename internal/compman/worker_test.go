package compman

import (
	"context"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

func startWorker(t *testing.T) string {
	t.Helper()
	w := NewWorker(WorkerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Serve(l)
	}()
	t.Cleanup(func() {
		w.Close()
		wg.Wait()
	})
	return l.Addr().String()
}

func workerBlock(n int) []mathutil.Vec {
	out := make([]mathutil.Vec, n)
	for i := range out {
		out[i] = mathutil.Vec{float64(i)}
	}
	return out
}

func TestWorkerExecutesBlock(t *testing.T) {
	addr := startWorker(t)
	pool, err := NewWorkerPool([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	chamber := pool.Chamber(WorkSpec{Program: ProgramSpec{Type: "mean", Col: 0}}, nil)
	out, err := chamber.Execute(context.Background(), workerBlock(5))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Errorf("remote mean = %v, want 2", out[0])
	}
}

func TestWorkerPoolRoundRobin(t *testing.T) {
	addrs := []string{startWorker(t), startWorker(t), startWorker(t)}
	pool, err := NewWorkerPool(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != 3 {
		t.Fatalf("Size = %d", pool.Size())
	}
	chamber := pool.Chamber(WorkSpec{Program: ProgramSpec{Type: "mean", Col: 0}}, nil)
	// Concurrent executions across the pool all succeed.
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := chamber.Execute(context.Background(), workerBlock(5))
			if err == nil && out[0] != 2 {
				err = context.DeadlineExceeded // any sentinel; value was wrong
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestWorkerBadProgram(t *testing.T) {
	addr := startWorker(t)
	pool, err := NewWorkerPool([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	chamber := pool.Chamber(WorkSpec{Program: ProgramSpec{Type: "sorcery"}}, nil)
	if _, err := chamber.Execute(context.Background(), workerBlock(3)); err == nil || !strings.Contains(err.Error(), "sorcery") {
		t.Errorf("bad program err = %v", err)
	}
	// The connection survives an application-level error.
	good := pool.Chamber(WorkSpec{Program: ProgramSpec{Type: "mean", Col: 0}}, nil)
	if _, err := good.Execute(context.Background(), workerBlock(3)); err != nil {
		t.Errorf("pool connection broken after app error: %v", err)
	}
}

func TestWorkerQuantumEnforced(t *testing.T) {
	addr := startWorker(t)
	pool, err := NewWorkerPool([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Timing normalization happens on the worker: a fast program is held to
	// the quantum remotely.
	chamber := pool.Chamber(WorkSpec{
		Program:       ProgramSpec{Type: "mean", Col: 0},
		QuantumMillis: 200,
	}, nil)
	start := time.Now()
	if _, err := chamber.Execute(context.Background(), workerBlock(3)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("remote quantum not enforced: %v", elapsed)
	}
}

func TestWorkerPoolValidation(t *testing.T) {
	if _, err := NewWorkerPool(nil); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewWorkerPool([]string{"127.0.0.1:1"}); err == nil {
		t.Error("unreachable worker accepted")
	}
}

func TestWorkerPoolClosedPick(t *testing.T) {
	addr := startWorker(t)
	pool, err := NewWorkerPool([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	chamber := pool.Chamber(WorkSpec{Program: ProgramSpec{Type: "mean", Col: 0}}, nil)
	if _, err := chamber.Execute(context.Background(), workerBlock(1)); err == nil {
		t.Error("closed pool executed")
	}
}

// End-to-end: a server configured with workers answers queries whose blocks
// ran on the worker daemons.
func TestServerWithWorkerPool(t *testing.T) {
	addrs := []string{startWorker(t), startWorker(t)}
	reg := buildCensusRegistry(t, 100)
	srv := NewServer(reg, ServerConfig{WorkerAddrs: addrs})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp, err := client.Query(&Request{
		Dataset:      "census",
		Program:      &ProgramSpec{Type: "mean", Col: 0},
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:      20,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.Output[0]-40) > 5 {
		t.Errorf("distributed mean = %v, want ~40", resp.Output[0])
	}
}

func TestServerWithUnreachableWorkers(t *testing.T) {
	reg := buildCensusRegistry(t, 100)
	srv := NewServer(reg, ServerConfig{WorkerAddrs: []string{"127.0.0.1:1"}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.Query(&Request{
		Dataset:      "census",
		Program:      &ProgramSpec{Type: "mean", Col: 0},
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:      1,
	})
	if err == nil || !strings.Contains(err.Error(), "worker pool unavailable") {
		t.Errorf("err = %v, want worker pool unavailable", err)
	}
}

// A worker restart mid-session: the pool redials transparently and the
// next block succeeds.
func TestWorkerPoolRecoversFromWorkerRestart(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Serve(l)
	}()

	pool, err := NewWorkerPool([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	chamber := pool.Chamber(WorkSpec{Program: ProgramSpec{Type: "mean", Col: 0}}, nil)
	if _, err := chamber.Execute(context.Background(), workerBlock(3)); err != nil {
		t.Fatal(err)
	}

	// Kill the worker and restart a new one on the same address.
	w.Close()
	wg.Wait()
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	w2 := NewWorker(WorkerConfig{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w2.Serve(l2)
	}()
	t.Cleanup(func() {
		w2.Close()
		wg.Wait()
	})

	// The pooled connection is dead; Execute must redial and succeed.
	out, err := chamber.Execute(context.Background(), workerBlock(5))
	if err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
	if out[0] != 2 {
		t.Errorf("post-restart mean = %v", out[0])
	}
}

// The worker chamber satisfies the sandbox.Chamber contract used by the
// engine.
var _ sandbox.Chamber = (*poolChamber)(nil)

// workFrame encodes one mean-of-column-0 work request over an n-row block.
func workFrame(tb testing.TB, n int) []byte {
	tb.Helper()
	req := WorkRequest{Spec: WorkSpec{Program: ProgramSpec{Type: "mean", Col: 0}}, Block: make([][]float64, n)}
	for i, r := range workerBlock(n) {
		req.Block[i] = r
	}
	frame, err := AppendWorkRequestFrame(nil, &req)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// The decoded work frame is the worker's private copy of the block: the
// program runs on those very rows, and nothing on the worker allocates per
// row after the decode.
func TestWorkerRunsProgramOnDecodedBlock(t *testing.T) {
	var saw *float64
	w := NewWorker(WorkerConfig{ChamberWrapper: func(inner sandbox.Chamber) sandbox.Chamber {
		c := *inner.(*sandbox.InProcess)
		c.Program = analytics.Func{ProgName: "probe", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
			saw = &block[0][0]
			return mathutil.Vec{0}, nil
		}}
		return &c
	}})
	req, _, err := DecodeWorkRequestFrame(workFrame(t, 385))
	if err != nil {
		t.Fatal(err)
	}
	if resp := w.execute(req); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if saw != &req.Block[0][0] {
		t.Error("the worker copied the decoded block again before the program ran")
	}

	w = NewWorker(WorkerConfig{})
	allocs := testing.AllocsPerRun(50, func() {
		if resp := w.execute(req); resp.Error != "" {
			t.Fatal(resp.Error)
		}
	})
	if allocs > 16 {
		t.Errorf("executing a decoded 385-row block allocates %.0f times, want <= 16 (no per-row clone)", allocs)
	}
}

// BenchmarkWorkerHandleBlock is one block's life on a worker, socket
// excluded: decode the work frame, execute it, encode the response.
func BenchmarkWorkerHandleBlock(b *testing.B) {
	w := NewWorker(WorkerConfig{})
	frame := workFrame(b, 385)
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, _, err := DecodeWorkRequestFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		resp := w.execute(req)
		if out, err = AppendWorkResponseFrame(out[:0], &resp); err != nil {
			b.Fatal(err)
		}
	}
}
