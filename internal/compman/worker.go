package compman

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
)

// Distributed execution. The paper's computation manager is split into a
// server component and a client component that runs on every node of the
// cluster, instantiating isolated execution chambers locally (§6). This
// file implements that split: a Worker daemon executes single blocks on its
// node, and a WorkerPool on the server side satisfies sandbox.Chamber by
// fanning block executions out across the registered workers. The engine
// is oblivious — it sees one Chamber and its usual parallelism knob.

// WorkSpec tells a worker what computation a block belongs to.
type WorkSpec struct {
	// Program selects the computation; binary specs are executed under the
	// worker's local subprocess chambers.
	Program ProgramSpec `json:"program"`
	// QuantumMillis arms the timing-attack defense on the worker.
	QuantumMillis int64 `json:"quantumMillis,omitempty"`
	// TraceID propagates the server's trace context: the worker labels its
	// spans with it and echoes it in the response, so one query yields one
	// cross-process span tree. Always server-generated (telemetry.NewTraceID),
	// never analyst input.
	TraceID string `json:"traceId,omitempty"`
}

// WorkRequest is one block execution.
type WorkRequest struct {
	Spec  WorkSpec    `json:"spec"`
	Block [][]float64 `json:"block"`
}

// WorkResponse is the execution result. Spans carry the worker's own trace
// spans (chamber setup, block execution) back for merging into the
// server-side trace; their raw durations are acceptable on this
// platform-internal wire but are bucketed before any export (see
// telemetry.RemoteSpan).
type WorkResponse struct {
	Output []float64 `json:"output,omitempty"`
	Error  string    `json:"error,omitempty"`
	// TraceID echoes the request's trace context; the pool treats a
	// mismatched echo as a desynchronized stream.
	TraceID string                 `json:"traceId,omitempty"`
	Spans   []telemetry.RemoteSpan `json:"spans,omitempty"`
}

// WorkerConfig tunes a worker daemon.
type WorkerConfig struct {
	// ScratchRoot hosts subprocess chamber scratch dirs.
	ScratchRoot string
	// ChamberWrapper, when set, wraps every chamber the worker builds —
	// the fault-injection surface (internal/faultinject) on the worker
	// node; production deployments normally leave it nil.
	ChamberWrapper func(sandbox.Chamber) sandbox.Chamber
	// Logger receives diagnostics; nil silences them.
	Logger *log.Logger
	// Telemetry, when set, receives the worker's own metrics: per-stage
	// bucketed latency histograms and execution counters, served by the
	// worker's admin endpoint (cmd/gupt-worker -admin-addr). Nil disables.
	Telemetry *telemetry.Registry
}

// Worker is the per-node client component of the computation manager: it
// accepts block-execution requests and runs them in local chambers.
type Worker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewWorker creates a worker daemon.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until Close. It blocks.
func (w *Worker) Serve(l net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("compman: worker closed")
	}
	w.listener = l
	w.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("compman: worker accept: %w", err)
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.wg.Add(1)
		w.mu.Unlock()
		go func() {
			defer w.wg.Done()
			w.handleConn(conn)
		}()
	}
}

// Close stops the worker: the listener and every live connection are
// closed, then in-flight executions are waited for.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	l := w.listener
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	w.wg.Wait()
	return err
}

func (w *Worker) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64*1024)
	version, err := sniffWire(conn, br, LatestWireVersion)
	if err != nil {
		if errors.Is(err, ErrPeerTooOld) {
			// A pre-binary server dialed in speaking raw JSON lines. Answer
			// with one terminal JSON error line — the only thing that peer
			// can parse — so its operator sees the reason, then hang up.
			_ = json.NewEncoder(conn).Encode(WorkResponse{Error: ErrPeerTooOld.Error()})
		}
		if err != io.EOF {
			w.logf("compman: worker wire sniff: %v", err)
		}
		return
	}
	_ = version // sniffWire only succeeds at WireVersionBinary or newer
	w.serveBinary(conn, br)
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logger != nil {
		w.cfg.Logger.Printf(format, args...)
	}
}

// serveBinary is the worker's framed-wire loop: one WorkRequest frame in,
// one WorkResponse frame out, pooled buffers reused across blocks — the
// path every block of a cluster query crosses, so it must not allocate
// per message.
func (w *Worker) serveBinary(conn net.Conn, br *bufio.Reader) {
	rbuf, wbuf := getWireBuf(), getWireBuf()
	defer putWireBuf(rbuf)
	defer putWireBuf(wbuf)
	for {
		payload, err := readWireFrame(br, rbuf)
		if err != nil {
			if err != io.EOF {
				w.logf("compman: worker read frame: %v", err)
			}
			return
		}
		frame, err := w.handle(payload, (*wbuf)[:0])
		if err != nil {
			w.logf("compman: worker encode response: %v", err)
			return
		}
		if _, err := conn.Write(frame); err != nil {
			w.logf("compman: worker write: %v", err)
			return
		}
		*wbuf = frame[:0]
	}
}

// handle is one block's life on the worker, socket excluded: decode the work
// payload into recycled storage, execute it, append the response frame to dst.
func (w *Worker) handle(payload, dst []byte) ([]byte, error) {
	var resp WorkResponse
	buf := mathutil.GetRowBuf()
	if spec, block, derr := decodeWork(payload, buf); derr != nil {
		resp.Error = derr.Error()
	} else {
		resp = w.execute(spec, block, buf.Release)
	}
	return AppendWorkResponseFrame(dst, &resp)
}

// decodeWork is the serve loop's decodePayload: the same checks as
// DecodeWorkRequestFrame's body, but the block lands in buf's recycled
// storage, already typed for a chamber, instead of in fresh allocations.
func decodeWork(payload []byte, buf *mathutil.RowBuf) (WorkSpec, []mathutil.Vec, error) {
	var block []mathutil.Vec
	spec, err := decodePayload(payload, wireMsgWorkRequest, "work request", func(d *wireDecoder) *WorkSpec {
		spec := decodeWorkSpec(d)
		block = d.matrixInto(buf)
		return &spec
	})
	if err != nil {
		return WorkSpec{}, nil, err
	}
	return *spec, block, nil
}

// execute runs one decoded block. The block is private to this request —
// the program's one copy — and release, which gives its storage back, is
// handed to the in-process chamber to call once the program is really done
// (sandbox.InProcess.Release). Every other outcome — a subprocess chamber, a
// wrapper that never reaches the program, an error — just drops the storage
// for the collector, which is always safe.
func (w *Worker) execute(spec WorkSpec, block []mathutil.Vec, release func()) WorkResponse {
	resp := WorkResponse{TraceID: spec.TraceID}

	// The worker records its own spans — chamber setup and block execution —
	// and ships them back for merging into the server-side trace. Durations
	// also feed the worker's local bucketed histograms so a worker node is
	// observable on its own admin endpoint.
	setupStart := time.Now()
	program, isBinary, err := spec.Program.resolve()
	if err != nil {
		resp.Error = err.Error()
		resp.Spans = append(resp.Spans, w.span(telemetry.StageWorkerSetup, telemetry.StatusError, setupStart))
		return resp
	}
	pol := sandbox.Policy{Metrics: w.cfg.Telemetry}
	if spec.QuantumMillis > 0 {
		pol.Quantum = time.Duration(spec.QuantumMillis) * time.Millisecond
	}
	var chamber sandbox.Chamber
	if isBinary {
		chamber = &sandbox.Subprocess{
			Path:        spec.Program.Path,
			Args:        spec.Program.Args,
			Policy:      pol,
			ScratchRoot: w.cfg.ScratchRoot,
		}
	} else {
		chamber = &sandbox.InProcess{Program: program, Policy: pol, OwnsBlock: true, Release: release}
	}
	if w.cfg.ChamberWrapper != nil {
		chamber = w.cfg.ChamberWrapper(chamber)
	}
	resp.Spans = append(resp.Spans, w.span(telemetry.StageWorkerSetup, telemetry.StatusOK, setupStart))

	execStart := time.Now()
	out, err := chamber.Execute(context.Background(), block)
	if err != nil {
		resp.Error = err.Error()
		resp.Spans = append(resp.Spans, w.span(telemetry.StageWorkerExecute, telemetry.StatusError, execStart))
		return resp
	}
	resp.Output = out
	resp.Spans = append(resp.Spans, w.span(telemetry.StageWorkerExecute, telemetry.StatusOK, execStart))
	return resp
}

// span closes one worker-side stage: it feeds the local bucketed histogram
// and returns the wire form for the server-side merge.
func (w *Worker) span(stage, status string, start time.Time) telemetry.RemoteSpan {
	d := time.Since(start)
	if w.cfg.Telemetry != nil {
		w.cfg.Telemetry.Histogram("trace.stage."+stage+".millis", telemetry.DefaultLatencyBuckets).Observe(d)
	}
	return telemetry.RemoteSpan{Stage: stage, Status: status, Millis: float64(d) / float64(time.Millisecond)}
}

// WorkerPool fans block executions out over a set of worker daemons. It is
// created once per server and handed to the engine as a chamber factory.
//
// Each worker address becomes a workerHost holding up to ConnsPerWorker
// connections, so one query's blocks shard across the whole fleet instead
// of serializing on one connection per worker. Block→worker assignment is
// rendezvous-hashed on the block index: adding or removing a worker only
// moves the blocks whose home that worker was, and — because block outputs
// are keyed by index and all RNG streams are server-side — any assignment
// produces bit-identical query results.
type WorkerPool struct {
	mu       sync.Mutex
	hosts    []*workerHost
	tel      *telemetry.Registry
	closed   bool
	closedCh chan struct{}

	connsPer       int
	stragglerAfter time.Duration
}

// PoolConfig tunes a worker pool beyond the address list.
type PoolConfig struct {
	// Addrs lists the worker daemons; all must be reachable at construction.
	Addrs []string
	// Version caps the wire version offered on every (re)dial; 0 means
	// LatestWireVersion.
	Version uint8
	// ConnsPerWorker bounds concurrent block exchanges per worker host;
	// 0 means 1 (one in-flight block per worker, the historical behavior).
	ConnsPerWorker int
	// StragglerAfter, when positive, duplicates a block to the next-ranked
	// worker if its home has not answered within this duration. The first
	// result wins; the loser's exchange completes in the background so its
	// connection stays synchronized. 0 disables re-dispatch.
	StragglerAfter time.Duration
}

// Instrument routes pool health counters into a telemetry registry:
// compman.pool.redials (transport-level reconnects), compman.pool.failovers
// (blocks retried on a different worker), compman.pool.straggler_redispatch
// (duplicate dispatches racing a slow home worker), compman.pool.demotions
// (workers demoted to last-resort after consecutive transport failures), the
// compman.pool.inflight
// depth gauge, and the per-worker compman.pool.worker.inflight.<addr> /
// compman.pool.worker.unhealthy.<addr> gauges. Nil-safe throughout; call
// before serving.
func (p *WorkerPool) Instrument(tel *telemetry.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tel = tel
	for _, h := range p.hosts {
		h.mu.Lock()
		for _, wc := range h.all {
			wc.mu.Lock()
			wc.redials = tel.Counter("compman.pool.redials")
			wc.mu.Unlock()
		}
		h.mu.Unlock()
	}
}

type workerConn struct {
	mu      sync.Mutex
	addr    string
	want    uint8 // wire version to offer on every (re)dial
	version uint8 // wire version this connection negotiated
	conn    net.Conn
	r       *bufio.Reader
	wbuf    []byte // reused binary encode buffer
	rbuf    []byte // reused binary frame read buffer
	broken  bool   // transport failed; redial before reuse
	redials *telemetry.Counter
}

// NewWorkerPool dials every worker address, negotiating the newest wire
// version each worker speaks. All must be reachable; a worker still on the
// retired JSON wire fails pool construction with an error naming the
// worker and wrapping ErrPeerTooOld.
func NewWorkerPool(addrs []string) (*WorkerPool, error) {
	return NewWorkerPoolConfig(PoolConfig{Addrs: addrs})
}

// NewWorkerPoolVersion dials every worker address offering at most the
// given wire version. WireVersionJSON (0) is retired and fails closed.
func NewWorkerPoolVersion(addrs []string, version uint8) (*WorkerPool, error) {
	if version == 0 {
		// PoolConfig treats 0 as "latest", so the retired-JSON refusal the
		// negotiator would produce is issued here instead.
		return nil, fmt.Errorf("%w: wire version %d is retired", ErrWireNegotiation, version)
	}
	return NewWorkerPoolConfig(PoolConfig{Addrs: addrs, Version: version})
}

// NewWorkerPoolConfig dials every configured worker address. One connection
// per worker is established eagerly (so a dead or too-old worker fails pool
// construction loudly); the rest of each host's connection budget is dialed
// lazily as block concurrency demands it.
func NewWorkerPoolConfig(cfg PoolConfig) (*WorkerPool, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("compman: worker pool needs at least one address")
	}
	version := cfg.Version
	if version == 0 {
		version = LatestWireVersion
	}
	connsPer := cfg.ConnsPerWorker
	if connsPer < 1 {
		connsPer = 1
	}
	p := &WorkerPool{
		closedCh:       make(chan struct{}),
		connsPer:       connsPer,
		stragglerAfter: cfg.StragglerAfter,
	}
	for _, addr := range cfg.Addrs {
		wc, err := dialWorker(addr, version)
		if err != nil {
			p.Close()
			return nil, err
		}
		h := &workerHost{
			addr:  addr,
			want:  version,
			pool:  p,
			slots: make(chan *workerConn, connsPer),
		}
		h.gaugeSuffix = metricLabel(addr)
		h.all = append(h.all, wc)
		h.slots <- wc
		for i := 1; i < connsPer; i++ {
			h.slots <- nil // dialed on demand
		}
		p.hosts = append(p.hosts, h)
	}
	return p, nil
}

// metricLabel turns a worker address into a metric-name-safe suffix.
func metricLabel(addr string) string {
	b := []byte(addr)
	for i, c := range b {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			b[i] = '_'
		}
	}
	return string(b)
}

// workerHost is one worker daemon's seat in the pool: a bounded set of
// connections plus the in-flight and health accounting that drives
// least-loaded selection and straggler re-dispatch.
type workerHost struct {
	addr        string
	want        uint8
	pool        *WorkerPool
	gaugeSuffix string

	// slots is the connection budget: a *workerConn ready for use, or nil
	// meaning "a connection may be dialed". Taking a slot bounds this
	// host's concurrent exchanges.
	slots chan *workerConn

	mu  sync.Mutex
	all []*workerConn // every dialed conn, for Close

	inflight atomic.Int64 // blocks currently dispatched here
	done     atomic.Int64 // blocks answered (including app-level errors)
	failed   atomic.Int64 // transport-level failures
	streak   atomic.Int64 // consecutive transport failures
	sick     atomic.Bool  // streak crossed unhealthyAfter; cleared on success
}

// unhealthyAfter is how many consecutive transport failures mark a worker
// unhealthy, demoting it to last-resort in candidate ranking until a
// successful exchange clears it.
const unhealthyAfter = 2

func (h *workerHost) inflightGauge() *telemetry.Gauge {
	return h.pool.gauge("compman.pool.worker.inflight." + h.gaugeSuffix)
}

func (h *workerHost) unhealthyGauge() *telemetry.Gauge {
	return h.pool.gauge("compman.pool.worker.unhealthy." + h.gaugeSuffix)
}

// saturated reports whether every connection slot is busy.
func (h *workerHost) saturated() bool {
	return h.inflight.Load() >= int64(cap(h.slots))
}

func (h *workerHost) noteFailure() {
	h.failed.Add(1)
	if h.streak.Add(1) >= unhealthyAfter && !h.sick.Swap(true) {
		h.unhealthyGauge().Set(1)
		h.pool.counter("compman.pool.demotions").Inc()
	}
}

func (h *workerHost) noteSuccess() {
	h.done.Add(1)
	h.streak.Store(0)
	if h.sick.Swap(false) {
		h.unhealthyGauge().Set(0)
	}
}

// acquire takes a connection slot, dialing lazily when the slot is still
// unused. Blocks when every slot is busy — the engine's parallelism is
// normally sized to the pool so this only gates bursts.
func (h *workerHost) acquire(ctx context.Context) (*workerConn, error) {
	select {
	case wc := <-h.slots:
		if wc != nil {
			return wc, nil
		}
		fresh, err := dialWorker(h.addr, h.want)
		if err != nil {
			h.slots <- nil // hand the slot back undialed
			return nil, err
		}
		fresh.redials = h.pool.counter("compman.pool.redials")
		h.mu.Lock()
		h.all = append(h.all, fresh)
		h.mu.Unlock()
		return fresh, nil
	case <-h.pool.closedCh:
		return nil, errPoolClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (h *workerHost) release(wc *workerConn) {
	if h.pool.isClosed() {
		wc.conn.Close()
		return
	}
	h.slots <- wc // never blocks: one slot was taken per acquire
}

// do runs one block exchange on this host, maintaining its in-flight and
// health accounting. Errors are transport-level (retryable elsewhere);
// application failures arrive inside the response.
func (h *workerHost) do(ctx context.Context, req *WorkRequest) (*WorkResponse, error) {
	h.inflight.Add(1)
	g := h.inflightGauge()
	g.Inc()
	defer func() {
		h.inflight.Add(-1)
		g.Dec()
	}()
	wc, err := h.acquire(ctx)
	if err != nil {
		if ctx.Err() == nil && !h.pool.isClosed() {
			h.noteFailure() // dial failure, not caller cancellation
		}
		return nil, err
	}
	resp, err := wc.execute(ctx, req)
	h.release(wc)
	if err != nil {
		h.noteFailure()
	} else {
		h.noteSuccess()
	}
	return resp, err
}

var errPoolClosed = errors.New("compman: worker pool is closed")

func dialWorker(addr string, version uint8) (*workerConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("compman: dial worker %s: %w", addr, err)
	}
	wc := &workerConn{
		addr: addr,
		want: version,
		conn: conn,
		r:    bufio.NewReaderSize(conn, 1<<20),
	}
	// Negotiation re-runs on every redial: a worker restarted on a
	// different release renegotiates instead of desynchronizing.
	v, err := negotiateWire(conn, wc.r, version)
	if err != nil {
		conn.Close()
		if errors.Is(err, ErrPeerTooOld) {
			// Name the stale worker explicitly: "dial failed" would send the
			// operator hunting the network when the fix is a worker upgrade.
			return nil, fmt.Errorf("compman: worker %s is too old for this server: %w", addr, err)
		}
		return nil, fmt.Errorf("compman: worker %s: %w", addr, err)
	}
	wc.version = v
	return wc, nil
}

// Close releases all worker connections. In-flight exchanges fail with
// transport errors and are not retried anywhere.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.closedCh)
	hosts := p.hosts
	p.hosts = nil
	p.mu.Unlock()
	for _, h := range hosts {
		h.mu.Lock()
		for _, wc := range h.all {
			wc.conn.Close()
		}
		h.mu.Unlock()
	}
}

func (p *WorkerPool) isClosed() bool {
	select {
	case <-p.closedCh:
		return true
	default:
		return false
	}
}

// Size returns the number of pooled workers.
func (p *WorkerPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.hosts)
}

// Parallelism returns how many blocks the fleet can hold in flight at
// once — workers × connections per worker. The engine's parallelism knob
// should be set to this.
func (p *WorkerPool) Parallelism() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.hosts) * p.connsPer
}

// WorkerStats snapshots per-worker fleet accounting for the admin plane.
func (p *WorkerPool) WorkerStats() []telemetry.WorkerStatus {
	p.mu.Lock()
	hosts := append([]*workerHost(nil), p.hosts...)
	p.mu.Unlock()
	out := make([]telemetry.WorkerStatus, 0, len(hosts))
	for _, h := range hosts {
		h.mu.Lock()
		conns := len(h.all)
		h.mu.Unlock()
		out = append(out, telemetry.WorkerStatus{
			Addr:      h.addr,
			Conns:     conns,
			MaxConns:  cap(h.slots),
			Inflight:  h.inflight.Load(),
			Done:      h.done.Load(),
			Failed:    h.failed.Load(),
			Unhealthy: h.sick.Load(),
		})
	}
	return out
}

// Chamber returns a sandbox.Chamber that executes blocks on the pool's
// workers. Blocks carrying an index (the engine's sandbox.BlockChamber
// path) are rendezvous-assigned a home worker; index-less Execute calls
// pick the least-loaded worker. Safe for concurrent use up to
// Parallelism() in-flight blocks. tr, when non-nil, receives the
// worker-side spans each reply ships back (labeled "worker:<addr>"); its
// id should already be on spec.TraceID.
func (p *WorkerPool) Chamber(spec WorkSpec, tr *telemetry.Trace) sandbox.Chamber {
	return &poolChamber{pool: p, spec: spec, tr: tr}
}

type poolChamber struct {
	pool *WorkerPool
	spec WorkSpec
	tr   *telemetry.Trace
}

// ReadOnlyBlocks declares the zero-copy contract: the pool chamber only
// reads block rows (straight into the wire encoder's contiguous float
// path), so the engine may hand it partition views without cloning.
func (c *poolChamber) ReadOnlyBlocks() bool { return true }

// Execute implements sandbox.Chamber for callers without a block index:
// the block goes to the least-loaded healthy worker.
func (c *poolChamber) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.run(ctx, -1, block)
}

// ExecuteBlock implements sandbox.BlockChamber: block idx is
// rendezvous-assigned its home worker so assignment is stable under fleet
// membership changes (only blocks homed on a removed worker move).
func (c *poolChamber) ExecuteBlock(ctx context.Context, idx int, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.run(ctx, idx, block)
}

// run dispatches one block. Transport-level failures (worker restart,
// network blip, corrupted reply) are retried — first by the connection's
// own redial, then by failing over down the candidate ranking, each
// remaining worker once — so a flaky or dead worker degrades accuracy (the
// engine substitutes blocks only when the whole fleet is unusable) rather
// than aborting the query. When StragglerAfter is set and the first worker
// has not answered in time, the block is duplicated to the next-ranked
// worker and the first result wins; the loser's exchange completes in the
// background, keeping its connection synchronized. Application-level
// errors come back as resp.Error and are never retried: the worker is
// healthy, the computation itself failed.
func (c *poolChamber) run(ctx context.Context, idx int, block []mathutil.Vec) (mathutil.Vec, error) {
	req := WorkRequest{Spec: c.spec, Block: make([][]float64, len(block))}
	for i, r := range block {
		req.Block[i] = r
	}

	inflight := c.pool.gauge("compman.pool.inflight")
	inflight.Inc()
	defer inflight.Dec()

	cands := c.pool.candidates(idx)
	if len(cands) == 0 {
		return nil, errPoolClosed
	}

	type result struct {
		host  *workerHost
		resp  *WorkResponse
		err   error
		stage string    // which dispatch kind launched this exchange
		start time.Time // when it was dispatched
	}
	results := make(chan result, len(cands))
	next := 0
	// launch dispatches the block to the next-ranked candidate, tagging the
	// exchange with its dispatch kind (first try, straggler duplicate, or
	// failover) so the observed outcome becomes a per-worker fan-out span in
	// the query trace.
	launch := func(stage string) bool {
		if next >= len(cands) {
			return false
		}
		h := cands[next]
		next++
		start := time.Now()
		go func() {
			resp, err := h.do(ctx, &req)
			results <- result{h, resp, err, stage, start}
		}()
		return true
	}
	launch(telemetry.StageFanoutDispatch)
	var straggler <-chan time.Time
	if d := c.pool.stragglerAfter; d > 0 && len(cands) > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		straggler = t.C
	}
	pending := 1
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			// Outstanding exchanges run to completion in the background
			// (bounded by the connection deadline) so their streams stay
			// request/response synchronized.
			return nil, ctx.Err()
		case <-straggler:
			straggler = nil
			if launch(telemetry.StageFanoutStraggler) {
				pending++
				c.pool.counter("compman.pool.straggler_redispatch").Inc()
			}
		case r := <-results:
			pending--
			c.noteDispatch(r.host, r.stage, r.start, r.err == nil && r.resp.Error == "")
			if r.err != nil {
				lastErr = r.err // transport-level: retryable on another worker
				if launch(telemetry.StageFanoutFailover) {
					pending++
					c.pool.counter("compman.pool.failovers").Inc()
				} else if pending == 0 {
					return nil, lastErr
				}
				continue
			}
			// The reply's spans merge into the query trace whether the block
			// succeeded or failed — a failing chamber is exactly what the
			// operator wants visible in the span tree.
			c.tr.AddRemoteSpans("worker:"+r.host.addr, r.resp.Spans)
			if r.resp.Error != "" {
				// Application-level: the worker is healthy, the computation
				// itself failed. Never retried.
				return nil, fmt.Errorf("compman: worker %s: %s", r.host.addr, r.resp.Error)
			}
			return mathutil.Vec(r.resp.Output), nil
		}
	}
}

// noteDispatch closes one fan-out dispatch as a worker-attributed span in
// the query trace: the stage says how the exchange was launched (first
// dispatch, straggler duplicate, failover), the process label names the
// worker, and the duration covers dispatch to observed outcome. Dispatches
// that lose the first-result-wins race finish in the background unobserved
// and record no span. Nil-trace safe.
func (c *poolChamber) noteDispatch(h *workerHost, stage string, start time.Time, ok bool) {
	status := telemetry.StatusOK
	if !ok {
		status = telemetry.StatusError
	}
	c.tr.AddRemoteSpans("worker:"+h.addr, []telemetry.RemoteSpan{{
		Stage:  stage,
		Status: status,
		Millis: float64(time.Since(start)) / float64(time.Millisecond),
	}})
}

// candidates returns the hosts to try for a block, in dispatch order. For
// an indexed block the order is the rendezvous (highest-random-weight)
// ranking of hash(worker, idx) — a deterministic per-block permutation, so
// the home assignment is stable under membership changes and failover
// walks a fixed secondary ranking. Index-less blocks rank by current load.
// Unhealthy hosts are demoted to the end (kept as last resorts: the redial
// machinery may still revive them), and a saturated or unhealthy home is
// spilled to the least-loaded healthy host with free capacity.
func (p *WorkerPool) candidates(idx int) []*workerHost {
	p.mu.Lock()
	hosts := append([]*workerHost(nil), p.hosts...)
	p.mu.Unlock()
	if len(hosts) == 0 {
		return nil
	}
	if idx >= 0 {
		sort.SliceStable(hosts, func(a, b int) bool {
			return rendezvousScore(hosts[a].addr, idx) > rendezvousScore(hosts[b].addr, idx)
		})
	} else {
		sort.SliceStable(hosts, func(a, b int) bool {
			return hosts[a].inflight.Load() < hosts[b].inflight.Load()
		})
	}
	// Demote unhealthy hosts, preserving relative order within each class.
	cands := make([]*workerHost, 0, len(hosts))
	var sick []*workerHost
	for _, h := range hosts {
		if h.sick.Load() {
			sick = append(sick, h)
		} else {
			cands = append(cands, h)
		}
	}
	cands = append(cands, sick...)
	// Least-loaded spill: a busy home must not queue a block while another
	// healthy worker sits idle.
	if len(cands) > 1 && (cands[0].saturated() || cands[0].sick.Load()) {
		best := -1
		for i := 1; i < len(cands); i++ {
			h := cands[i]
			if h.sick.Load() || h.saturated() {
				continue
			}
			if best < 0 || h.inflight.Load() < cands[best].inflight.Load() {
				best = i
			}
		}
		if best > 0 {
			promoted := cands[best]
			copy(cands[1:best+1], cands[:best])
			cands[0] = promoted
		}
	}
	return cands
}

// rendezvousScore is the highest-random-weight hash for block→worker
// assignment: FNV-1a over the worker address, mixed with the block index
// by a splitmix64 finalizer. Deterministic across processes and runs.
func rendezvousScore(addr string, idx int) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	h += uint64(idx)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// execute runs one exchange on this worker, redialing a broken connection
// before and once after a transport failure. A non-nil error is always
// transport-level (retryable on another worker); application failures come
// back inside the response.
func (wc *workerConn) execute(ctx context.Context, req *WorkRequest) (*WorkResponse, error) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.broken {
		if dialErr := wc.redialLocked(); dialErr != nil {
			return nil, dialErr
		}
	}
	resp, err := wc.roundTrip(ctx, req)
	if err == nil {
		return resp, nil
	}
	// Transient blip: one immediate redial + retry on the same worker.
	if dialErr := wc.redialLocked(); dialErr != nil {
		return nil, fmt.Errorf("compman: worker %s unreachable after %v", wc.addr, err)
	}
	return wc.roundTrip(ctx, req)
}

// redialLocked replaces a broken connection; the caller holds wc.mu.
func (wc *workerConn) redialLocked() error {
	wc.redials.Inc()
	fresh, err := dialWorker(wc.addr, wc.want)
	if err != nil {
		return err
	}
	wc.conn.Close()
	wc.conn, wc.r, wc.broken = fresh.conn, fresh.r, false
	wc.version = fresh.version
	return nil
}

// roundTrip performs one request/response exchange; the caller holds wc.mu.
// On transport failure it marks the connection broken. Errors are
// transport-level only; an application failure arrives in resp.Error.
func (wc *workerConn) roundTrip(ctx context.Context, req *WorkRequest) (*WorkResponse, error) {
	if deadline, ok := ctx.Deadline(); ok {
		_ = wc.conn.SetDeadline(deadline)
	} else {
		_ = wc.conn.SetDeadline(time.Time{})
	}
	resp, err := wc.exchangeBinary(req)
	if err != nil {
		// Send/receive failures and corrupted replies all leave the stream
		// unsynchronized; drop the connection rather than risk pairing
		// future replies wrongly.
		wc.broken = true
		return nil, err
	}
	if req.Spec.TraceID != "" && resp.TraceID != "" && resp.TraceID != req.Spec.TraceID {
		// A reply for a different request means request/response pairing
		// slipped — same treatment as a corrupted stream.
		wc.broken = true
		return nil, fmt.Errorf("compman: worker %s: trace echo %q for request %q (stream desynchronized)", wc.addr, resp.TraceID, req.Spec.TraceID)
	}
	return resp, nil
}

// exchangeBinary runs one exchange on the framed wire; wc.mu held. The
// connection-owned buffers persist across blocks, so the per-block framing
// cost is the contiguous float64 copy and nothing else.
func (wc *workerConn) exchangeBinary(req *WorkRequest) (*WorkResponse, error) {
	frame, err := AppendWorkRequestFrame(wc.wbuf[:0], req)
	if err != nil {
		return nil, fmt.Errorf("compman: worker %s encode: %w", wc.addr, err)
	}
	if _, err := wc.conn.Write(frame); err != nil {
		return nil, fmt.Errorf("compman: worker %s send: %w", wc.addr, err)
	}
	wc.wbuf = frame[:0]
	payload, err := readWireFrame(wc.r, &wc.rbuf)
	if err != nil {
		return nil, fmt.Errorf("compman: worker %s receive: %w", wc.addr, err)
	}
	resp, err := decodePayload(payload, wireMsgWorkResponse, "work response", decodeWorkResponseBody)
	if err != nil {
		return nil, fmt.Errorf("compman: worker %s: %w", wc.addr, err)
	}
	return resp, nil
}

// counter and gauge resolve pool metrics through the (possibly nil)
// telemetry registry.
func (p *WorkerPool) counter(name string) *telemetry.Counter {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tel.Counter(name)
}

func (p *WorkerPool) gauge(name string) *telemetry.Gauge {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tel.Gauge(name)
}
