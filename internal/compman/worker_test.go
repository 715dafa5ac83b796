package compman

import (
	"context"
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gupt/internal/allocguard"
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
	// An unreachable worker builds a pool; the readiness check fails.
	pool, err := NewWorkerPool([]string{"127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.ready(context.Background()); err == nil {
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

// remainingBudget reads the census dataset's remaining ε.
func remainingBudget(t *testing.T, c *Client) float64 {
	t.Helper()
	rem, err := c.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	return rem
}

// refusedUncharged runs one query that must be refused for want of a
// worker, with the remaining budget left as it was.
func refusedUncharged(t *testing.T, c *Client) {
	t.Helper()
	before := remainingBudget(t, c)
	if _, err := c.Query(meanQuery(0.5, 250)); err == nil || !strings.Contains(err.Error(), "worker pool unavailable") {
		t.Fatalf("err = %v, want worker pool unavailable", err)
	}
	if rem := remainingBudget(t, c); rem != before {
		t.Errorf("the refusal moved the budget: %v -> %v", before, rem)
	}
}

// answered runs one query that every block must answer.
func answered(t *testing.T, c *Client) {
	t.Helper()
	resp, err := c.Query(meanQuery(0.5, 250))
	if err != nil {
		t.Fatal(err)
	}
	if resp.FailedBlocks != 0 {
		t.Errorf("%d of %d blocks substituted, want 0", resp.FailedBlocks, resp.NumBlocks)
	}
}

// A server started before its worker refuses queries before their charge
// until the worker listens, and then answers without a restart.
func TestServerJoinsWorkerStartedLater(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	c, _ := startServerCfg(t, 10, ServerConfig{WorkerAddrs: []string{addr}})
	refusedUncharged(t, c)
	startWorkerAt(t, addr)
	answered(t, c)
}

// When the only worker dies, the query that finds out is charged for its
// degraded answer; the next one is refused before its charge; a worker
// restarted at the same address answers the one after.
func TestServerRefusesWhileFleetDown(t *testing.T) {
	addr, kill := startKillableWorker(t)
	c, srv := startServerCfg(t, 10, ServerConfig{WorkerAddrs: []string{addr}})
	answered(t, c)
	kill()

	before := remainingBudget(t, c)
	resp, err := c.Query(meanQuery(0.5, 250))
	if err != nil {
		t.Fatal(err)
	}
	if resp.FailedBlocks != resp.NumBlocks || resp.EpsilonCharged != 0.5 {
		t.Errorf("query after the kill: %d of %d blocks substituted, ε %v charged; want all, 0.5",
			resp.FailedBlocks, resp.NumBlocks, resp.EpsilonCharged)
	}
	if rem := remainingBudget(t, c); math.Abs(before-0.5-rem) > 1e-9 {
		t.Errorf("remaining budget %v after the degraded query, want %v", rem, before-0.5)
	}
	if conns := srv.WorkerStats()[0].Conns; conns != 0 {
		t.Errorf("the dead worker reports %d open connections, want 0", conns)
	}

	refusedUncharged(t, c)
	startWorkerAt(t, addr)
	answered(t, c)
}

// A repeat of a released query needs no worker: with the fleet down, it is
// served from the cache at zero ε, while a new query is still refused
// before its charge.
func TestServerCacheHitWhileFleetDown(t *testing.T) {
	addr, kill := startKillableWorker(t)
	c, _ := startServerCfg(t, 10, ServerConfig{WorkerAddrs: []string{addr}, CacheEntries: 16})
	first, err := c.Query(meanQuery(0.5, 250))
	if err != nil {
		t.Fatal(err)
	}
	kill()
	// The query that finds the worker gone is charged for its degraded
	// answer, and the pool drops its connection.
	degraded := meanQuery(0.5, 250)
	degraded.Seed = 8
	if resp, err := c.Query(degraded); err != nil || resp.FailedBlocks != resp.NumBlocks {
		t.Fatalf("query after the kill: %+v, %v; want every block substituted", resp, err)
	}

	before := remainingBudget(t, c)
	resp, err := c.Query(meanQuery(0.5, 250))
	if err != nil {
		t.Fatalf("repeat with the fleet down: %v", err)
	}
	if !resp.CacheHit || resp.EpsilonCharged != 0 || !slices.Equal(resp.Output, first.Output) {
		t.Errorf("repeat with the fleet down: cache hit %v, ε %v charged, output %v; want a hit, 0, %v",
			resp.CacheHit, resp.EpsilonCharged, resp.Output, first.Output)
	}
	if rem := remainingBudget(t, c); rem != before {
		t.Errorf("the cache hit moved the budget: %v -> %v", before, rem)
	}
	fresh := meanQuery(0.5, 250)
	fresh.Seed = 9
	if _, err := c.Query(fresh); err == nil || !strings.Contains(err.Error(), "worker pool unavailable") {
		t.Fatalf("new query with the fleet down: err = %v, want worker pool unavailable", err)
	}
	if rem := remainingBudget(t, c); rem != before {
		t.Errorf("the refusal moved the budget: %v -> %v", before, rem)
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

// workPayload encodes one work request and strips the checked frame header:
// what the serve loop hands Worker.handle.
func workPayload(tb testing.TB, spec WorkSpec, block [][]float64) []byte {
	tb.Helper()
	frame, err := AppendWorkRequestFrame(nil, &WorkRequest{Spec: spec, Block: block})
	if err != nil {
		tb.Fatal(err)
	}
	payload, _, err := DecodeFrame(frame)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// gridBlock is an n×cols block whose cells are all distinct.
func gridBlock(n, cols int) [][]float64 {
	block := make([][]float64, n)
	for i := range block {
		block[i] = make([]float64, cols)
		for j := range block[i] {
			block[i][j] = float64(i*cols + j)
		}
	}
	return block
}

var meanSpec = WorkSpec{Program: ProgramSpec{Type: "mean", Col: 0}}

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
	spec, block, err := decodeWork(workPayload(t, meanSpec, gridBlock(385, 1)), new(mathutil.RowBuf))
	if err != nil {
		t.Fatal(err)
	}
	if resp := w.execute(spec, block, nil); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if saw != &block[0][0] {
		t.Error("the worker copied the decoded block again before the program ran")
	}

	w = NewWorker(WorkerConfig{})
	allocs := testing.AllocsPerRun(50, func() {
		if resp := w.execute(spec, block, nil); resp.Error != "" {
			t.Fatal(resp.Error)
		}
	})
	if allocs > 16 {
		t.Errorf("executing a decoded 385-row block allocates %.0f times, want <= 16 (no per-row clone)", allocs)
	}
}

// BenchmarkWorkerHandleBlock is one block's life on a worker, socket
// excluded: decode the work frame into recycled storage, execute it, encode
// the response.
func BenchmarkWorkerHandleBlock(b *testing.B) {
	w := NewWorker(WorkerConfig{})
	payload := workPayload(b, meanSpec, gridBlock(385, 1))
	var out []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = w.handle(payload, out[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// respOutput decodes the response frame Worker.handle appended.
func respOutput(t *testing.T, frame []byte) []float64 {
	t.Helper()
	resp, _, err := DecodeWorkResponseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	return resp.Output
}

// The serve loop's recycled path — decode, execute, encode — allocates no
// row storage in steady state. With a fresh decode plus a second header
// slice per block, a 385×11 frame cost ≈ 62 KiB here.
func TestWorkerSteadyStateBytes(t *testing.T) {
	allocguard.SkipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
	w := NewWorker(WorkerConfig{})
	payload := workPayload(t, meanSpec, gridBlock(385, 11))
	var out []byte
	run := func() {
		var err error
		if out, err = w.handle(payload, out[:0]); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := respOutput(t, out); len(got) != 1 || got[0] != 192*11 {
		t.Fatalf("mean of column 0 = %v, want [2112]", got)
	}
	// Measured 712 bytes; the bound is that + 20 %.
	if bytes := allocguard.Bytes(run); bytes > 854 {
		t.Errorf("one 385×11 block through the worker allocates %d bytes in steady state, want <= 854", bytes)
	}
}

// A ragged block is legal on the wire and rare; the recycled decode must
// hand the program the same rows the allocating decode would.
func TestWorkerDecodesRaggedBlock(t *testing.T) {
	ragged := [][]float64{{4, 1}, {6}, {8, 2, 3}}
	spec, block, err := decodeWork(workPayload(t, meanSpec, ragged), new(mathutil.RowBuf))
	if err != nil {
		t.Fatal(err)
	}
	if len(block) != len(ragged) {
		t.Fatalf("decoded %d rows, want %d", len(block), len(ragged))
	}
	for i := range ragged {
		if !block[i].Equal(ragged[i], 0) {
			t.Errorf("row %d = %v, want %v", i, block[i], ragged[i])
		}
	}
	if resp := NewWorker(WorkerConfig{}).execute(spec, block, nil); resp.Error != "" || resp.Output[0] != 6 {
		t.Errorf("mean over the ragged block = %+v, want 6", resp)
	}
}

// After a 500-row frame, a 100-row frame decoded into the same storage
// cannot be re-sliced back to the other 400 rows or past any row's end, and
// the rows it does see are its own.
func TestWorkerDecodedBlockCannotReachBack(t *testing.T) {
	var buf mathutil.RowBuf
	if _, _, err := decodeWork(workPayload(t, meanSpec, gridBlock(500, 11)), &buf); err != nil {
		t.Fatal(err)
	}
	small := gridBlock(100, 3)
	_, block, err := decodeWork(workPayload(t, meanSpec, small), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(block) != 100 || cap(block) != 100 {
		t.Fatalf("block has len %d cap %d, want 100 and 100", len(block), cap(block))
	}
	for i, r := range block {
		if cap(r) != len(r) || !r.Equal(small[i], 0) {
			t.Fatalf("row %d = %v (cap %d), want %v with cap == len", i, r, cap(r), small[i])
		}
	}
}

// A quantum-killed program on a worker keeps reading its decoded block while
// the serve loop decodes 50 more frames; its storage must not be among the
// buffers they recycle. Under -race any reuse is a reported data race.
func TestWorkerAbandonedProgramKeepsItsFrame(t *testing.T) {
	sum := func(block []mathutil.Vec) (s float64) {
		for _, r := range block {
			s += r[0]
		}
		return s
	}
	done := make(chan float64, 1)
	straggler := analytics.Func{ProgName: "straggler", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		if block[0][0] >= 0 {
			return mathutil.Vec{sum(block)}, nil
		}
		var last float64
		for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
			last = sum(block)
		}
		done <- last
		return mathutil.Vec{last}, nil
	}}
	w := NewWorker(WorkerConfig{ChamberWrapper: func(inner sandbox.Chamber) sandbox.Chamber {
		c := *inner.(*sandbox.InProcess)
		c.Program = straggler
		return &c
	}})
	spec := WorkSpec{Program: ProgramSpec{Type: "mean", Col: 0}, QuantumMillis: 20}

	slow := gridBlock(385, 1)
	slow[0][0] = -1
	want := -1.0
	for _, r := range slow[1:] {
		want += r[0]
	}
	frame, err := w.handle(workPayload(t, spec, slow), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _, err := DecodeWorkResponseFrame(frame); err != nil || !strings.Contains(resp.Error, "quantum") {
		t.Fatalf("killed block answered %+v, %v; want the quantum kill", resp, err)
	}
	other := gridBlock(385, 1)
	for _, r := range other {
		r[0] += 1000 // nothing like the straggler's values
	}
	payload := workPayload(t, spec, other)
	for i := 0; i < 50; i++ {
		if frame, err = w.handle(payload, frame[:0]); err != nil {
			t.Fatal(err)
		}
		resp, _, err := DecodeWorkResponseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(resp.Error, "quantum") {
			continue // a loaded box may kill an honest block too
		}
		if resp.Error != "" || resp.Output[0] != want+1+385*1000 {
			t.Fatalf("block %d answered %+v, want %v", i, resp, want+1+385*1000)
		}
	}
	select {
	case got := <-done:
		if got != want {
			t.Errorf("the straggler's last sum was %v, its own block sums to %v: its frame was reused under it", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the straggler never finished")
	}
}

// A forged uniform-matrix header whose rows×cols×8 wraps uint64 to zero must
// be refused before anything is sized from it, by both decoders.
func TestWorkMatrixShapeOverflowRefused(t *testing.T) {
	payload := workPayload(t, meanSpec, gridBlock(1, 1))
	// The matrix is the payload's tail: layout byte, rows, cols, one cell.
	hdr := payload[len(payload)-17:]
	if hdr[0] != 1 {
		t.Fatalf("layout byte = %d, want the uniform layout", hdr[0])
	}
	forged := append([]byte(nil), payload[:len(payload)-8]...) // drop the cell
	shape := forged[len(forged)-8:]
	binary.LittleEndian.PutUint32(shape[0:], 1<<31)
	binary.LittleEndian.PutUint32(shape[4:], 1<<30)
	if _, err := decodePayload(forged, wireMsgWorkRequest, "work request", decodeWorkRequestBody); err == nil || !strings.Contains(err.Error(), "exceeds payload") {
		t.Errorf("allocating decode of a 2^31×2^30 header: %v, want a refusal", err)
	}
	if _, _, err := decodeWork(forged, new(mathutil.RowBuf)); err == nil || !strings.Contains(err.Error(), "exceeds payload") {
		t.Errorf("recycled decode of a 2^31×2^30 header: %v, want a refusal", err)
	}
}

// A forged work frame declaring 2^24 rows of zero width must be refused
// before anything is sized from the row count — by the allocating decoder
// and by the worker's recycled one alike. Sized from it, the row headers
// alone are 384 MiB. Zero-width rows travel per-row, 4 bytes each.
func TestWorkMatrixZeroColumnRowsBounded(t *testing.T) {
	payload := workPayload(t, meanSpec, gridBlock(1, 1))
	forged := append([]byte(nil), payload[:len(payload)-8]...) // drop the cell
	shape := forged[len(forged)-8:]
	binary.LittleEndian.PutUint32(shape[0:], 1<<24)
	binary.LittleEndian.PutUint32(shape[4:], 0)
	e := newFrameEncoder(nil)
	e.b = append(e.b, forged...)
	frame, err := e.finishFrame()
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{})
	for _, c := range []struct {
		name string
		run  func() string // the refusal's text
	}{
		{"DecodeWorkRequestFrame", func() string {
			if _, _, err := DecodeWorkRequestFrame(frame); err != nil {
				return err.Error()
			}
			return ""
		}},
		{"Worker.handle", func() string {
			out, err := w.handle(forged, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, _, err := DecodeWorkResponseFrame(out)
			if err != nil {
				t.Fatal(err)
			}
			return resp.Error
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg := c.run()
		runtime.ReadMemStats(&after)
		if !strings.Contains(msg, ErrWireFrame.Error()) {
			t.Errorf("%s on %d zero-width rows: %q, want %v", c.name, 1<<24, msg, ErrWireFrame)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 1<<20 {
			t.Errorf("%s allocated %d bytes refusing a %d-byte frame, want < 1 MiB", c.name, bytes, len(frame))
		}
	}

	// The zero-width blocks the encoder does send still round-trip.
	rows := [][]float64{{}, {}, {}}
	if frame, err = AppendWorkRequestFrame(nil, &WorkRequest{Spec: meanSpec, Block: rows}); err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeWorkRequestFrame(frame)
	if err != nil || len(got.Block) != 3 || len(got.Block[2]) != 0 {
		t.Errorf("3 zero-width rows decoded as %+v, %v", got, err)
	}
	_, block, err := decodeWork(workPayload(t, meanSpec, rows), new(mathutil.RowBuf))
	if err != nil || len(block) != 3 || len(block[0]) != 0 {
		t.Errorf("3 zero-width rows recycled-decoded as %v, %v", block, err)
	}
}
