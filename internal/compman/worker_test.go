package compman

import (
	"context"
	"encoding/binary"
	"math"
	"net"
	"runtime"
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
	skipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	// Measured 712 bytes; the bound is that + 20 %.
	if bytes := (after.TotalAlloc - before.TotalAlloc) / 20; bytes > 854 {
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
