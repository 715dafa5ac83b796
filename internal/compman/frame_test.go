package compman

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gupt/internal/allocguard"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
)

// referenceMatrix is the matrix encoder the pool's one-pass encoder
// replaced, kept verbatim as the reference for its bytes: it measures the
// whole view first and then writes it.
func referenceMatrix(e *wireEncoder, rows [][]float64) {
	uniform := true
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
		uniform = cols > 0
		for _, r := range rows[1:] {
			if len(r) != cols {
				uniform = false
				break
			}
		}
	}
	if uniform {
		e.u8(1)
		e.u32(uint32(len(rows)))
		e.u32(uint32(cols))
		off := len(e.b)
		e.b = append(e.b, make([]byte, 8*len(rows)*cols)...)
		for i, r := range rows {
			base := off + 8*i*cols
			for j, x := range r {
				binary.LittleEndian.PutUint64(e.b[base+8*j:], math.Float64bits(x))
			}
		}
		return
	}
	e.u8(0)
	e.u32(uint32(len(rows)))
	for _, r := range rows {
		e.f64s(r)
	}
}

// referenceWorkFrame is the work request frame for spec and block as the
// reference encoder writes it.
func referenceWorkFrame(t *testing.T, spec *WorkSpec, block [][]float64) []byte {
	t.Helper()
	e := newFrameEncoder(nil)
	e.u8(wireMsgWorkRequest)
	encodeWorkSpec(e, spec)
	referenceMatrix(e, block)
	frame, err := e.finishFrame()
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// randomShape draws one table and one index list: rectangular, ragged
// (the first row's width, or another, first), a zero-width first row, an
// empty or nil index list, and repeated indices.
func randomShape(rng *rand.Rand) (rows []mathutil.Vec, idx []int, shape string) {
	n := 1 + rng.Intn(40)
	cols := rng.Intn(6)
	rows = make([]mathutil.Vec, n)
	for i := range rows {
		rows[i] = make(mathutil.Vec, cols)
	}
	shape = fmt.Sprintf("%d×%d", n, cols)
	switch rng.Intn(4) {
	case 1: // ragged: one row of another width
		r := rng.Intn(n)
		rows[r] = make(mathutil.Vec, (cols+1+rng.Intn(3))%5)
		shape += fmt.Sprintf(" ragged at %d", r)
	case 2: // every row its own width
		for i := range rows {
			rows[i] = make(mathutil.Vec, rng.Intn(4))
		}
		shape += " widths random"
	case 3: // zero-width first row
		rows[0] = mathutil.Vec{}
		shape += " zero-width first"
	}
	for _, r := range rows {
		for j := range r {
			r[j] = rng.NormFloat64()
		}
	}
	switch rng.Intn(5) {
	case 0:
		return rows, nil, shape + ", idx nil"
	case 1:
		return rows, []int{}, shape + ", idx empty"
	case 2: // repeated indices, the γ > 1 case
		idx = make([]int, rng.Intn(2*n))
		for j := range idx {
			idx[j] = rng.Intn(n)
		}
		if len(idx) > 1 {
			idx[1] = idx[0]
		}
		return rows, idx, shape + ", idx repeats"
	default: // a shuffled subset
		idx = rng.Perm(n)[:rng.Intn(n+1)]
		return rows, idx, shape + ", idx subset"
	}
}

// The pool encodes a block straight from the table, one row at a time by
// stride; the frame must be the one the public encoder writes over a view
// of the same rows, and that the replaced encoder wrote, byte for byte, for
// every shape. An empty block is the uniform 0×0 layout, a zero-width first
// row or a ragged block the per-row one. A table is rectangular, so the
// strided encoder meets the rectangular shapes; the public encoder meets
// them all.
func TestWorkFrameMatchesRequestEncoder(t *testing.T) {
	spec := sampleWorkRequest().Spec
	rng := rand.New(rand.NewSource(38))
	check := func(rows []mathutil.Vec, idx []int, shape string) {
		t.Helper()
		view := make([][]float64, 0, len(rows))
		if idx == nil {
			for _, r := range rows {
				view = append(view, r)
			}
		} else {
			for _, i := range idx {
				view = append(view, rows[i])
			}
		}
		want := referenceWorkFrame(t, &spec, view)
		public, err := AppendWorkRequestFrame(nil, &WorkRequest{Spec: spec, Block: view})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(public, want) {
			t.Fatalf("%s: AppendWorkRequestFrame differs from the reference encoder", shape)
		}
		table, err := mathutil.FlattenRows(rows)
		if err != nil {
			return // ragged: no table has this shape
		}
		if idx == nil {
			idx = make([]int, len(rows))
			for i := range idx {
				idx[i] = i
			}
		}
		// Into a dirty buffer, as the pool's recycled frames are.
		got, err := appendBlockFrame([]byte("stale bytes of an earlier frame"), &spec, table, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: appendBlockFrame differs from the reference encoder", shape)
		}
	}
	check(nil, nil, "no rows, idx nil")
	check([]mathutil.Vec{{1, 2}}, []int{}, "idx empty")
	check([]mathutil.Vec{{}, {}}, []int{1, 0}, "zero-width rows only")
	check([]mathutil.Vec{{1, 2}, {3}, {4, 5}}, []int{0, 2, 1}, "ragged last")
	for i := 0; i < 500; i++ {
		rows, idx, shape := randomShape(rng)
		check(rows, idx, shape)
	}
}

// recordingWorker starts a worker whose chamber records every block it
// executes, as a string of its values, then holds it for hold and runs the
// mean program on it. stop closes the worker, waits for what it is
// executing and returns the records.
func recordingWorker(t *testing.T, hold time.Duration) (addr string, stop func() []string) {
	t.Helper()
	var mu sync.Mutex
	var records []string
	w := NewWorker(WorkerConfig{ChamberWrapper: func(inner sandbox.Chamber) sandbox.Chamber {
		return chamberFunc(func(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
			s := blockString(block)
			mu.Lock()
			records = append(records, s)
			mu.Unlock()
			time.Sleep(hold)
			return inner.Execute(ctx, block)
		})
	}})
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
	return l.Addr().String(), func() []string {
		w.Close()
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), records...)
	}
}

func blockString(block []mathutil.Vec) string {
	var b strings.Builder
	for _, r := range block {
		fmt.Fprint(&b, []float64(r), ";")
	}
	return b.String()
}

// An engine block with no rows may arrive as a nil index list; the pool
// must send it as an empty block, not as the whole table.
func TestPoolChamberNilIndexIsEmptyBlock(t *testing.T) {
	addr, stop := recordingWorker(t, 0)
	pool, err := NewWorkerPool([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rows := mathutil.NewMatrix([]float64{1, 2, 3}, 3, 1)
	chamber := pool.Chamber(meanSpec, nil).(sandbox.RowChamber)
	_, _ = chamber.ExecuteRows(context.Background(), 0, rows, nil)
	if got := stop(); len(got) != 1 || got[0] != "" {
		t.Errorf("a nil index list reached the worker as %q, want one empty block", got)
	}
}

// A cancelled block's run returns while its exchanges finish in the
// background, and the engine then gives the block's index list back for the
// next query. Nothing may read it after ExecuteRows returns: the test
// overwrites every block's indices at once, so under -race a late read is a
// reported race, and a worker that executed a block must have seen the rows
// the block had when it was handed over.
func TestFanoutCancelledBlocksLeaveIndicesAlone(t *testing.T) {
	addr, stop := recordingWorker(t, 200*time.Microsecond)
	pool, err := NewWorkerPoolConfig(PoolConfig{Addrs: []string{addr}, ConnsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	chamber := pool.Chamber(meanSpec, nil).(sandbox.RowChamber)

	const n, blocks, size, parallel = 4000, 96, 20, 8
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = float64(i)
	}
	rows := mathutil.NewMatrix(cells, n, 1)
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	delays := make([]time.Duration, blocks)
	for b := range delays {
		if b%2 == 1 {
			delays[b] = time.Duration(rng.Intn(1500)) * time.Microsecond
		}
	}
	handed := make(map[string]bool, blocks)
	means := make([]float64, blocks)
	for b := range means {
		var block []mathutil.Vec
		sum := 0.0
		for _, i := range perm[b*size : (b+1)*size] {
			block = append(block, rows.Row(i))
			sum += cells[i]
		}
		handed[blockString(block)] = true
		means[b] = sum / size
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var nAnswered, nCancelled int
	sem := make(chan struct{}, parallel)
	for b := 0; b < blocks; b++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(b int) {
			defer wg.Done()
			defer func() { <-sem }()
			idx := perm[b*size : (b+1)*size]
			ctx := context.Background()
			if delays[b] > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, delays[b])
				defer cancel()
			}
			out, err := chamber.ExecuteRows(ctx, b, rows, idx)
			// The block is over for its caller: its indices now belong to
			// another query.
			for j := range idx {
				idx[j] = (idx[j] + 1) % n
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				nCancelled++
				return
			}
			nAnswered++
			if out[0] != means[b] {
				t.Errorf("block %d answered %v, want %v", b, out[0], means[b])
			}
		}(b)
	}
	wg.Wait()
	pool.Close()
	for _, s := range stop() {
		if !handed[s] {
			t.Errorf("a worker executed rows no block was handed: %s", s)
		}
	}
	if nAnswered == 0 || nCancelled == 0 {
		t.Errorf("%d blocks answered, %d cancelled; the test needs both", nAnswered, nCancelled)
	}
}

// A block whose caller gives up returns while its exchange runs on, and
// the dispatch state the block used stays with that exchange until its
// late reply is in. Meanwhile the next query's blocks run through the same
// pool, on the same goroutine, so that they would be handed that state
// again were it recycled when the block returned. Each must answer exactly
// what a clean run answers, and the late reply must land nowhere: in no
// answer, and in neither query's trace.
func TestFanoutLateReplyLandsNowhere(t *testing.T) {
	stalled, resume := make(chan struct{}, 1), make(chan struct{})
	pool := loopbackPool(t, WorkerConfig{ChamberWrapper: func(inner sandbox.Chamber) sandbox.Chamber {
		return chamberFunc(func(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
			if block[0][0] < 0 {
				stalled <- struct{}{}
				<-resume
			} else {
				time.Sleep(200 * time.Microsecond)
			}
			return inner.Execute(ctx, block)
		})
	}}, 2)

	const n, blocks, size = 4000, 40, 50
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = float64(i) + 1/float64(i+3)
	}
	rows := mathutil.NewMatrix(cells, n, 1)
	perm := rand.New(rand.NewSource(3)).Perm(n)
	late := mathutil.NewMatrix([]float64{-1, -2, -3}, 3, 1)

	clean := make([]mathutil.Vec, blocks)
	chamber := pool.Chamber(meanSpec, nil).(sandbox.RowChamber)
	for b := range clean {
		out, err := chamber.ExecuteRows(context.Background(), b, rows, perm[b*size:(b+1)*size])
		if err != nil {
			t.Fatal(err)
		}
		clean[b] = out
	}

	for round := 0; round < 3; round++ {
		first := telemetry.NewTrace(nil, fmt.Sprintf("late-%d", round), "grid")
		spec := meanSpec
		spec.TraceID = first.ID
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-stalled
			cancel()
		}()
		if _, err := pool.Chamber(spec, first).(sandbox.RowChamber).ExecuteRows(ctx, 0, late, []int{0, 1, 2}); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: the stalled block returned %v, want its cancellation", round, err)
		}

		next := telemetry.NewTrace(nil, fmt.Sprintf("next-%d", round), "grid")
		spec.TraceID = next.ID
		chamber := pool.Chamber(spec, next).(sandbox.RowChamber)
		for b := 0; b < blocks; b++ {
			if b == blocks/4 {
				close(resume) // the late reply arrives while the next blocks run
			}
			out, err := chamber.ExecuteRows(context.Background(), b, rows, perm[b*size:(b+1)*size])
			if err != nil {
				t.Fatalf("round %d block %d: %v", round, b, err)
			}
			if !bitsEqual(out, clean[b]) {
				t.Fatalf("round %d block %d answered %v, a clean run %v", round, b, out, clean[b])
			}
		}
		resume = make(chan struct{})

		for deadline := time.Now().Add(10 * time.Second); pool.hosts[0].inflight.Load() > 0; {
			if time.Now().After(deadline) {
				t.Fatal("the stalled block's exchange never finished")
			}
			time.Sleep(time.Millisecond)
		}
		if spans := first.Spans(); len(spans) != 0 {
			t.Errorf("round %d: the abandoned block's trace holds %d spans, want none", round, len(spans))
		}
		if spans := next.Spans(); len(spans) != 3*blocks {
			t.Errorf("round %d: the next query's trace holds %d spans, want %d", round, len(spans), 3*blocks)
		}
	}
}

// loopbackPool starts a worker of this process with cfg and returns a pool
// over it with conns connection slots.
func loopbackPool(tb testing.TB, cfg WorkerConfig, conns int) *WorkerPool {
	tb.Helper()
	w := NewWorker(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Serve(l)
	}()
	pool, err := NewWorkerPoolConfig(PoolConfig{Addrs: []string{l.Addr().String()}, ConnsPerWorker: conns})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		pool.Close()
		w.Close()
		wg.Wait()
	})
	return pool
}

// gridTable is gridBlock(385, 11) as a table, and its rows in shuffled
// order: one engine block.
func gridTable() (mathutil.Matrix, []int) {
	cells := make([]float64, 0, 385*11)
	for _, r := range gridBlock(385, 11) {
		cells = append(cells, r...)
	}
	rows := mathutil.NewMatrix(cells, 385, 11)
	return rows, rand.New(rand.NewSource(1)).Perm(rows.Len())
}

// poolBlock runs a 385×11 table, in shuffled order, as one block through a
// pool chamber and a loopback worker of this process.
func poolBlock(tb testing.TB) func() (mathutil.Vec, error) {
	tb.Helper()
	pool := loopbackPool(tb, WorkerConfig{}, 1)
	rows, idx := gridTable()
	chamber := pool.Chamber(meanSpec, nil).(sandbox.RowChamber)
	return func() (mathutil.Vec, error) { return chamber.ExecuteRows(context.Background(), 0, rows, idx) }
}

// A fanned-out block costs the pool nothing but its output, on both ends of
// the wire: the program's, the chamber's copy of it and the reply's, 8 bytes
// each for a mean. The dispatch state, the reply's spans and trace echo, the
// worker's spec, program and chamber are all reused. With a [][]float64
// view of the block per call it cost 10,824 bytes, and with a fresh result
// channel, ranking and reply per block, 1,048.
func TestPoolChamberSteadyStateBytes(t *testing.T) {
	allocguard.SkipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
	block := poolBlock(t)
	run := func() {
		out, err := block()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0] != 192*11 {
			t.Fatalf("mean of column 0 = %v, want [2112]", out)
		}
	}
	// Measured 24 bytes; the bound is that + 20 %, rounded up to the
	// allocator's 8-byte step.
	if bytes := allocguard.Bytes(run); bytes > 32 {
		t.Errorf("one 385×11 block through the pool allocates %d bytes in steady state, want <= 32", bytes)
	}
}

// histSpec has the k-means shape of output, 40 floats, without k-means's
// own work: a 40-bin histogram of column 0.
var histSpec = WorkSpec{Program: ProgramSpec{Type: "histogram", Col: 0, Lo: 0, Hi: 385 * 11, Bins: 40}}

// A traced query's blocks through the pool, to a worker that keeps its own
// metrics, each block answering 40 floats: beyond the three copies of each
// output, a block costs its three merged spans, 64 bytes each in the
// trace, and nothing to find their histograms on either end.
func TestPoolChamberTracedSteadyStateBytes(t *testing.T) {
	allocguard.SkipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
	wreg, sreg := telemetry.NewRegistry(), telemetry.NewRegistry()
	pool := loopbackPool(t, WorkerConfig{Telemetry: wreg}, 1)
	rows, idx := gridTable()
	const blocks = 8
	var tr *telemetry.Trace
	query := func() {
		tr = telemetry.NewTrace(sreg, "0123456789abcdef", "grid")
		spec := histSpec
		spec.TraceID = tr.ID
		chamber := pool.Chamber(spec, tr).(sandbox.RowChamber)
		for b := 0; b < blocks; b++ {
			out, err := chamber.ExecuteRows(context.Background(), b, rows, idx)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 40 || out[0] != 10.0/385 {
				t.Fatalf("histogram of column 0 = %v, want 40 bins, the first holding 10 rows of 385", out)
			}
		}
	}
	// Measured 1,297 bytes: 960 of outputs, the trace's 2 KiB of merged
	// spans over 8 blocks, and the trace and chamber themselves. The bound
	// is that + 20 %.
	if bytes := allocguard.Bytes(query) / blocks; bytes > 1556 {
		t.Errorf("one block of a traced 8-block query allocates %d bytes in steady state, want <= 1556", bytes)
	}
	if got := len(tr.Spans()); got != 3*blocks {
		t.Errorf("the query's trace holds %d spans, want %d: three per block", got, 3*blocks)
	}
	if h := wreg.Snapshot().Histograms["trace.stage."+telemetry.StageWorkerExecute+".millis"]; h.Count == 0 {
		t.Error("the worker's execute histogram saw no block")
	}
}

// With a quantum the worker runs the program on a goroutine of its own,
// which the in-process chamber pays for; the pool's side is unchanged.
func TestPoolChamberQuantumSteadyStateBytes(t *testing.T) {
	allocguard.SkipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
	pool := loopbackPool(t, WorkerConfig{}, 1)
	rows, idx := gridTable()
	spec := meanSpec
	spec.QuantumMillis = 1
	chamber := pool.Chamber(spec, nil).(sandbox.RowChamber)
	run := func() {
		out, err := chamber.ExecuteRows(context.Background(), 0, rows, idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0] != 192*11 {
			t.Fatalf("mean of column 0 = %v, want [2112]", out)
		}
	}
	// Measured 744–768 bytes; the bound is 768 + 20 %.
	if bytes := allocguard.Bytes(run); bytes > 922 {
		t.Errorf("one quantum-bound block through the pool allocates %d bytes in steady state, want <= 922", bytes)
	}
}

// BenchmarkPoolChamberBlock is one block's round trip through the pool to a
// loopback worker of this process, both sides' allocations included.
func BenchmarkPoolChamberBlock(b *testing.B) {
	block := poolBlock(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := block(); err != nil {
			b.Fatal(err)
		}
	}
}
