package compman

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gupt/internal/analytics"
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
	// Program selects the computation from the built-in library.
	Program ProgramSpec
	// QuantumMillis arms the timing-attack defense on the worker.
	QuantumMillis int64
	// TraceID propagates the server's trace context: the worker labels its
	// spans with it and echoes it in the response, so one query yields one
	// cross-process span tree. Always server-generated (telemetry.NewTraceID),
	// never analyst input.
	TraceID string
}

// WorkRequest is one block execution.
type WorkRequest struct {
	Spec  WorkSpec
	Block [][]float64
}

// WorkResponse is the execution result. Spans carry the worker's own trace
// spans (chamber setup, block execution) back for merging into the
// server-side trace; their raw durations are acceptable on this
// platform-internal wire but are bucketed before any export (see
// telemetry.RemoteSpan).
type WorkResponse struct {
	Output []float64
	Error  string
	// TraceID echoes the request's trace context; the pool treats a
	// mismatched echo as a desynchronized stream.
	TraceID string
	Spans   []telemetry.RemoteSpan
}

// WorkerConfig tunes a worker daemon.
type WorkerConfig struct {
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
	cfg  WorkerConfig
	wire frameServer
}

// NewWorker creates a worker daemon.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{cfg: cfg}
	w.wire = frameServer{
		open:      func() frameHandler { return w.newLoop().handle },
		logf:      w.logf,
		prefix:    "compman: worker ",
		closedErr: errors.New("compman: worker closed"),
		writeText: "write",
	}
	return w
}

// Serve accepts connections until Close. It blocks.
func (w *Worker) Serve(l net.Listener) error { return w.wire.serve(l) }

// Close stops the worker: the listener and every live connection are
// closed, then in-flight executions are waited for.
func (w *Worker) Close() error { return w.wire.close() }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logger != nil {
		w.cfg.Logger.Printf(format, args...)
	}
}

// workerLoop is one connection's state on a worker, reused for every block
// the connection carries: the spec decoded in place, the program resolved
// from it, the response and the storage the next block runs in.
type workerLoop struct {
	w    *Worker
	spec WorkSpec
	// prog was resolved from the program spec whose wire encoding is
	// progWire; a block whose program spec encodes to the same bytes — the
	// encoding is canonical, floats by their bits — resolves nothing.
	prog     analytics.Program
	progWire []byte
	resp     WorkResponse
	exec     *blockExec
}

func (w *Worker) newLoop() *workerLoop {
	return &workerLoop{w: w, exec: newBlockExec()}
}

// blockExec is the storage a block's program runs in: the decoded block and
// the in-process chamber around the program. The program holds it from
// Execute until the chamber's Release, which the goroutine that ran the
// program calls once Run has ended. A program abandoned at its quantum, or
// one a chamber wrapper never ran, still holds it when the next block comes:
// that block runs in a new blockExec, and the old one stays with whatever
// may still read it.
type blockExec struct {
	buf     mathutil.RowBuf
	chamber sandbox.InProcess
	held    atomic.Bool
}

func newBlockExec() *blockExec {
	x := new(blockExec)
	x.chamber.OwnsBlock = true
	x.chamber.Release = func() { x.held.Store(false) }
	return x
}

// handle is one block's life on the worker, socket excluded: decode the work
// payload into recycled storage, execute it, append the response frame to dst.
func (l *workerLoop) handle(payload, dst []byte) ([]byte, error) {
	if l.exec.held.Load() {
		l.exec = newBlockExec()
	}
	l.resp = WorkResponse{Spans: l.resp.Spans[:0]}
	if block, prog, err := decodeWork(payload, &l.spec, &l.exec.buf); err != nil {
		l.resp.Error = err.Error()
	} else {
		l.execute(block, prog)
	}
	return AppendWorkResponseFrame(dst, &l.resp)
}

// decodeWork is the serve loop's decodePayload: the same checks as
// DecodeWorkRequestFrame's body, but the spec is decoded into spec, keeping
// the strings that did not change, and the block lands in buf's recycled
// storage, already typed for a chamber, instead of in fresh allocations.
// prog is the payload's encoding of the program spec.
func decodeWork(payload []byte, spec *WorkSpec, buf *mathutil.RowBuf) (block []mathutil.Vec, prog []byte, err error) {
	d, err := openPayload(payload, wireMsgWorkRequest, "work request")
	if err != nil {
		return nil, nil, err
	}
	prog = decodeWorkSpec(&d, spec)
	block = d.matrixInto(buf)
	if err := d.close("work request"); err != nil {
		return nil, nil, err
	}
	return block, prog, nil
}

// execute runs one block, decoded into l.exec with the program spec whose
// encoding is prog, and fills l.resp. The block
// is private to this request — the program's one copy — so the in-process
// chamber runs the program on it directly, and hands l.exec back through its
// Release once the program is really done. Every other outcome — a wrapper
// that never reaches the program, an error — leaves l.exec held, and the
// next block takes a new one.
func (l *workerLoop) execute(block []mathutil.Vec, prog []byte) {
	w, x, resp := l.w, l.exec, &l.resp
	resp.TraceID = l.spec.TraceID

	// The worker records its own spans — chamber setup and block execution —
	// and ships them back for merging into the server-side trace. Durations
	// also feed the worker's local bucketed histograms so a worker node is
	// observable on its own admin endpoint.
	setupStart := time.Now()
	program, err := l.program(prog)
	if err != nil {
		resp.Error = err.Error()
		resp.Spans = append(resp.Spans, w.span(telemetry.StageWorkerSetup, telemetry.StatusError, setupStart))
		return
	}
	x.chamber.Program = program
	x.chamber.Policy = sandbox.Policy{Metrics: w.cfg.Telemetry}
	if l.spec.QuantumMillis > 0 {
		x.chamber.Policy.Quantum = time.Duration(l.spec.QuantumMillis) * time.Millisecond
	}
	var chamber sandbox.Chamber = &x.chamber
	if w.cfg.ChamberWrapper != nil {
		chamber = w.cfg.ChamberWrapper(chamber)
	}
	resp.Spans = append(resp.Spans, w.span(telemetry.StageWorkerSetup, telemetry.StatusOK, setupStart))

	execStart := time.Now()
	x.held.Store(true)
	out, err := chamber.Execute(context.Background(), block)
	if err != nil {
		resp.Error = err.Error()
		resp.Spans = append(resp.Spans, w.span(telemetry.StageWorkerExecute, telemetry.StatusError, execStart))
		return
	}
	resp.Output = out
	resp.Spans = append(resp.Spans, w.span(telemetry.StageWorkerExecute, telemetry.StatusOK, execStart))
}

// program resolves the spec's program, or returns the last block's when the
// spec's encoding, wire, is the same.
func (l *workerLoop) program(wire []byte) (analytics.Program, error) {
	if l.prog != nil && bytes.Equal(wire, l.progWire) {
		return l.prog, nil
	}
	prog, err := l.spec.Program.resolve()
	if err != nil {
		return nil, err
	}
	l.prog, l.progWire = prog, append(l.progWire[:0], wire...)
	return prog, nil
}

// span closes one worker-side stage: it feeds the local bucketed histogram
// and returns the wire form for the server-side merge.
func (w *Worker) span(stage, status string, start time.Time) telemetry.RemoteSpan {
	d := time.Since(start)
	w.cfg.Telemetry.StageHistogram(stage).Observe(d)
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
	mu     sync.Mutex
	hosts  []*workerHost
	closed bool
	// alive ends when Close runs; readiness's background dials run under
	// it, and Close waits for them in dials.
	alive context.Context
	stop  context.CancelFunc
	dials sync.WaitGroup

	// metrics holds the pool's metric handles, resolved once per registry
	// so that a block looks none of them up.
	metrics atomic.Pointer[poolMetrics]

	connsPer       int
	stragglerAfter time.Duration
}

// PoolConfig tunes a worker pool beyond the address list.
type PoolConfig struct {
	// Addrs lists the worker daemons. None is dialed at construction: each
	// connection is dialed on first use.
	Addrs []string
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
// compman.pool.inflight depth gauge, and the per-worker
// compman.pool.worker.inflight.<addr> / compman.pool.worker.unhealthy.<addr>
// gauges. It resolves every handle once, here; blocks only load them. Nil-safe
// throughout; a later call moves the pool to the new registry.
func (p *WorkerPool) Instrument(tel *telemetry.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.metrics.Store(newPoolMetrics(tel))
	for _, h := range p.hosts {
		h.instrument(tel)
	}
}

// poolMetrics is the pool's metric handles in one registry (nil handles
// with no registry).
type poolMetrics struct {
	inflight                                  *telemetry.Gauge
	redials, failovers, stragglers, demotions *telemetry.Counter
}

func newPoolMetrics(tel *telemetry.Registry) *poolMetrics {
	return &poolMetrics{
		inflight:   tel.Gauge("compman.pool.inflight"),
		redials:    tel.Counter("compman.pool.redials"),
		failovers:  tel.Counter("compman.pool.failovers"),
		stragglers: tel.Counter("compman.pool.straggler_redispatch"),
		demotions:  tel.Counter("compman.pool.demotions"),
	}
}

// workerConn is one connection slot of a worker host. Whoever took it from
// the host's slots owns it until handing it back, so none of its fields
// needs a lock. conn is nil until the slot is dialed and again after a
// transport failure dropped it. The slot sends work frames encoded before
// its exchange began and keeps only its read buffers.
type workerConn struct {
	conn net.Conn
	r    *bufio.Reader
	rbuf []byte // reused binary frame read buffer
	held bool   // the slot has held a connection: its next dial is a redial
}

// NewWorkerPool builds a pool over the worker addresses. It dials nothing;
// a worker that is unreachable, or on a retired wire version, shows at
// first use, with an error naming the worker (wrapping ErrPeerTooOld for
// the latter).
func NewWorkerPool(addrs []string) (*WorkerPool, error) {
	return NewWorkerPoolConfig(PoolConfig{Addrs: addrs})
}

// NewWorkerPoolConfig builds a pool over the configured workers. Every
// connection slot starts empty and is dialed when an exchange first takes
// it, so construction fails only on an empty address list.
func NewWorkerPoolConfig(cfg PoolConfig) (*WorkerPool, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("compman: worker pool needs at least one address")
	}
	connsPer := cfg.ConnsPerWorker
	if connsPer < 1 {
		connsPer = 1
	}
	p := &WorkerPool{
		connsPer:       connsPer,
		stragglerAfter: cfg.StragglerAfter,
	}
	p.alive, p.stop = context.WithCancel(context.Background())
	p.metrics.Store(newPoolMetrics(nil))
	for _, addr := range cfg.Addrs {
		h := &workerHost{
			addr:  addr,
			label: "worker:" + addr,
			pool:  p,
			slots: make(chan *workerConn, connsPer),
			open:  make(map[net.Conn]struct{}),
		}
		h.instrument(nil)
		for i := 0; i < connsPer; i++ {
			h.slots <- new(workerConn)
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
	addr  string
	label string // "worker:<addr>", the process of its spans in a trace
	pool  *WorkerPool

	// metrics holds the host's gauges, resolved once per registry.
	metrics atomic.Pointer[hostMetrics]

	// slots is the connection budget. Taking a slot bounds this host's
	// concurrent exchanges; a slot without a connection is dialed by the
	// acquire that takes it.
	slots chan *workerConn

	mu   sync.Mutex
	open map[net.Conn]struct{} // the slots' open connections, for Close and /workers

	inflight atomic.Int64 // blocks currently dispatched here
	done     atomic.Int64 // blocks answered (including app-level errors)
	failed   atomic.Int64 // transport-level failures
	streak   atomic.Int64 // consecutive transport failures
	sick     atomic.Bool  // streak crossed unhealthyAfter; cleared on success
	dialing  atomic.Bool  // a background dial from ready is running
}

// unhealthyAfter is how many consecutive transport failures mark a worker
// unhealthy, demoting it to last-resort in candidate ranking until a
// successful exchange clears it.
const unhealthyAfter = 2

// hostMetrics is one host's gauges in one registry.
type hostMetrics struct {
	inflight, unhealthy *telemetry.Gauge
}

// instrument resolves h's gauges in tel (nil handles when tel is nil).
func (h *workerHost) instrument(tel *telemetry.Registry) {
	suffix := metricLabel(h.addr)
	h.metrics.Store(&hostMetrics{
		inflight:  tel.Gauge("compman.pool.worker.inflight." + suffix),
		unhealthy: tel.Gauge("compman.pool.worker.unhealthy." + suffix),
	})
}

// saturated reports whether every connection slot is busy.
func (h *workerHost) saturated() bool {
	return h.inflight.Load() >= int64(cap(h.slots))
}

func (h *workerHost) noteFailure() {
	h.failed.Add(1)
	if h.streak.Add(1) >= unhealthyAfter && !h.sick.Swap(true) {
		h.metrics.Load().unhealthy.Set(1)
		h.pool.metrics.Load().demotions.Inc()
	}
}

func (h *workerHost) noteSuccess() {
	h.done.Add(1)
	h.heal()
}

// heal clears the failure streak and the sick mark.
func (h *workerHost) heal() {
	h.streak.Store(0)
	if h.sick.Swap(false) {
		h.metrics.Load().unhealthy.Set(0)
	}
}

// acquire takes a connection slot, dialing it when it holds no
// connection. Blocks when every slot is busy — the engine's parallelism is
// normally sized to the pool so this only gates bursts.
func (h *workerHost) acquire(ctx context.Context) (*workerConn, error) {
	select {
	case wc := <-h.slots:
		if wc.conn == nil {
			if err := h.connect(ctx, wc); err != nil {
				h.slots <- wc // hand the slot back empty
				return nil, err
			}
		}
		return wc, nil
	case <-h.pool.alive.Done():
		return nil, errPoolClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// do runs one block exchange on this host, maintaining its in-flight and
// health accounting: it sends frame, a complete work request frame whose
// spec carries traceID, and decodes the reply into resp. A transport
// failure gets one immediate redial and retry on this worker, sending the
// same frame. Errors are transport-level (retryable elsewhere); application
// failures arrive inside the response.
func (h *workerHost) do(ctx context.Context, frame []byte, traceID string, resp *WorkResponse) error {
	h.inflight.Add(1)
	g := h.metrics.Load().inflight
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
		return err
	}
	err = h.roundTrip(ctx, wc, frame, traceID, resp)
	if err != nil {
		if dialErr := h.connect(ctx, wc); dialErr != nil {
			err = fmt.Errorf("compman: worker %s unreachable after %v", h.addr, err)
		} else {
			err = h.roundTrip(ctx, wc, frame, traceID, resp)
		}
	}
	h.slots <- wc // never blocks: one slot was taken per acquire
	if err != nil {
		h.noteFailure()
	} else {
		h.noteSuccess()
	}
	return err
}

var errPoolClosed = errors.New("compman: worker pool is closed")

// connect dials the empty slot wc under ctx and runs the handshake. The
// handshake runs on every dial: a worker restarted on a different release
// is refused instead of desynchronizing. The open connection is tracked
// under h.mu, where Close finds it.
func (h *workerHost) connect(ctx context.Context, wc *workerConn) error {
	if wc.held {
		h.pool.metrics.Load().redials.Inc()
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", h.addr)
	if err != nil {
		return fmt.Errorf("compman: dial worker %s: %w", h.addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	// The handshake ends with ctx too, deadline or not, so Close ends a
	// background dial's handshake with a peer that never answers.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	r := bufio.NewReaderSize(conn, 64*1024)
	err = negotiateWire(conn, r)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		conn.Close()
		if errors.Is(err, ErrPeerTooOld) {
			// Name the stale worker explicitly: "dial failed" would send the
			// operator hunting the network when the fix is a worker upgrade.
			return fmt.Errorf("compman: worker %s is too old for this server: %w", h.addr, err)
		}
		return fmt.Errorf("compman: worker %s: %w", h.addr, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.pool.isClosed() {
		conn.Close()
		return errPoolClosed
	}
	h.open[conn] = struct{}{}
	wc.conn, wc.r, wc.held = conn, r, true
	return nil
}

// drop closes the slot's connection after a transport failure and empties
// the slot; its next use dials afresh.
func (h *workerHost) drop(wc *workerConn) {
	h.mu.Lock()
	delete(h.open, wc.conn)
	h.mu.Unlock()
	wc.conn.Close()
	wc.conn = nil
}

// openConns counts the host's open connections.
func (h *workerHost) openConns() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.open)
}

// Close releases all worker connections. In-flight exchanges fail with
// transport errors and are not retried anywhere; readiness's background
// dials end, and Close returns once they have.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.stop()
	hosts := p.hosts
	p.hosts = nil
	p.mu.Unlock()
	for _, h := range hosts {
		h.mu.Lock()
		for c := range h.open {
			c.Close()
		}
		h.mu.Unlock()
	}
	p.dials.Wait()
}

// ready reports how many hosts a block can reach now: those that hold an
// open connection. When none does, it dials every host at once under ctx,
// which is how a fleet started late, or restarted after it all went down,
// rejoins, and counts the ones that connect; the error is the first
// host's when none does. A host that holds no connection while another
// does is not counted, so the count errs low, never high; it is dialed in
// the background instead (redial), which is how a worker that restarts
// while another is up rejoins.
func (p *WorkerPool) ready(ctx context.Context) (int, error) {
	hosts := p.snapshot()
	if len(hosts) == 0 {
		return 0, errPoolClosed
	}
	live := 0
	var down []*workerHost
	for _, h := range hosts {
		if h.openConns() > 0 {
			live++
		} else {
			down = append(down, h)
		}
	}
	if live > 0 {
		for _, h := range down {
			h.redial()
		}
		return live, nil
	}
	errs := make([]error, len(hosts))
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = h.dial(ctx)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err == nil {
			live++
		}
	}
	if live == 0 {
		return 0, errs[0]
	}
	return live, nil
}

// dial connects a slot of h under ctx unless the one it takes holds a
// connection already. A host that connects is healthy again: candidates
// ranks it by its home blocks once more.
func (h *workerHost) dial(ctx context.Context) error {
	wc, err := h.acquire(ctx)
	if err != nil {
		return err
	}
	h.slots <- wc
	h.heal()
	return nil
}

// redialTimeout bounds one background dial, handshake included: a host
// that accepts and never answers the hello is dropped after it and tried
// again by a later readiness check, instead of pinning its dial until
// Close. A healthy worker answers in well under a millisecond.
const redialTimeout = time.Second

// redial starts one dial of h that no query waits for, unless one is
// still running: a blackholed host would otherwise hold every query's
// readiness check until its deadline. Without it a sick host, ranked last,
// is never dialed while another host has a free slot. The dial ends after
// redialTimeout, or when Close ends it; Close waits for it.
func (h *workerHost) redial() {
	p := h.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || !h.dialing.CompareAndSwap(false, true) {
		return
	}
	p.dials.Add(1)
	go func() {
		defer p.dials.Done()
		defer h.dialing.Store(false)
		ctx, cancel := context.WithTimeout(p.alive, redialTimeout)
		defer cancel()
		_ = h.dial(ctx)
	}()
}

// snapshot copies the host list.
func (p *WorkerPool) snapshot() []*workerHost {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*workerHost(nil), p.hosts...)
}

func (p *WorkerPool) isClosed() bool { return p.alive.Err() != nil }

// Size returns the number of pooled workers.
func (p *WorkerPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.hosts)
}

// Parallelism returns how many blocks the configured fleet can hold in
// flight at once — workers × connections per worker. A query plans with
// it; readiness then lowers it to the hosts that hold a connection.
func (p *WorkerPool) Parallelism() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.hosts) * p.connsPer
}

// WorkerStats snapshots per-worker fleet accounting for the admin plane.
func (p *WorkerPool) WorkerStats() []telemetry.WorkerStatus {
	hosts := p.snapshot()
	out := make([]telemetry.WorkerStatus, 0, len(hosts))
	for _, h := range hosts {
		out = append(out, telemetry.WorkerStatus{
			Addr:      h.addr,
			Conns:     h.openConns(),
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

// Execute implements sandbox.Chamber for callers without a block index:
// the block goes to the least-loaded healthy worker.
func (c *poolChamber) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.ExecuteBlock(ctx, -1, block)
}

// ExecuteBlock implements sandbox.BlockChamber: block idx is
// rendezvous-assigned its home worker so assignment is stable under fleet
// membership changes (only blocks homed on a removed worker move).
func (c *poolChamber) ExecuteBlock(ctx context.Context, idx int, block []mathutil.Vec) (mathutil.Vec, error) {
	x := getBlockRun()
	defer x.release()
	b, err := appendWorkFrame(x.frame[:0], &c.spec, block)
	return c.send(ctx, idx, x, b, err)
}

// ExecuteRows implements sandbox.RowChamber, the engine's path: the block
// is encoded straight from the table, row idx[j] read from its cells by
// stride, into its work frame, so it is copied once, onto the wire.
// Assignment is as under ExecuteBlock.
func (c *poolChamber) ExecuteRows(ctx context.Context, block int, rows mathutil.Matrix, idx []int) (mathutil.Vec, error) {
	x := getBlockRun()
	defer x.release()
	b, err := appendBlockFrame(x.frame[:0], &c.spec, rows, idx)
	return c.send(ctx, block, x, b, err)
}

// send dispatches the block's work frame b, encoded into x's storage, or
// reports err, the encoder's. The frame is complete before any exchange
// starts, and every exchange of the block sends that same frame, so
// nothing reads the rows or the index list after the encoder returns: the
// index list may alias the engine's recycled permutation, which the next
// query overwrites while a cancelled block's exchanges are still finishing
// in the background.
func (c *poolChamber) send(ctx context.Context, block int, x *blockRun, b []byte, err error) (mathutil.Vec, error) {
	if err != nil {
		return nil, fmt.Errorf("compman: encode block: %w", err)
	}
	x.frame = b
	return c.run(ctx, block, x)
}

// blockRun is one block's dispatch state: its encoded work frame, its
// ranked hosts, one attempt per host and the channel the attempts report
// on, all kept in blockRunPool from block to block. refs counts its holders:
// the chamber call until run returns, and each launched attempt until it
// has reported. The last one drains the reports nobody read and puts it
// back, so the attempts of a block that returned early (cancelled, or won
// by a straggler duplicate) finish in the background on state that no
// other block shares.
type blockRun struct {
	refs  atomic.Int32
	c     *poolChamber
	ctx   context.Context
	frame []byte
	cands []*workerHost
	tries []*attempt // tries[i] dispatches to cands[i]
	next  int        // cands[next] is the next host launch tries
	// results has room for an attempt per host, so a report never blocks.
	results chan *attempt

	keys []uint64      // candidates' scratch: the ranking keys
	sick []*workerHost // candidates' scratch: the demoted hosts
}

var blockRunPool = sync.Pool{New: func() any { return new(blockRun) }}

// getBlockRun takes a blockRun from blockRunPool, held by its caller.
func getBlockRun() *blockRun {
	x := blockRunPool.Get().(*blockRun)
	x.refs.Store(1)
	return x
}

func (x *blockRun) release() {
	if x.refs.Add(-1) != 0 {
		return
	}
	for len(x.results) > 0 {
		<-x.results
	}
	x.c, x.ctx = nil, nil
	blockRunPool.Put(x)
}

// attempt is one dispatch of a block to one host, and its report: the
// reply is decoded into resp, whose storage it keeps. fn is do, bound once,
// so launching the attempt on a goroutine of its own allocates nothing.
type attempt struct {
	x     *blockRun
	host  *workerHost
	stage string    // which dispatch kind launched it
	start time.Time // when it was launched
	resp  WorkResponse
	err   error
	span  [1]telemetry.RemoteSpan // its fan-out span, for the query trace
	fn    func()
}

func (a *attempt) do() {
	x := a.x
	a.err = a.host.do(x.ctx, x.frame, x.c.spec.TraceID, &a.resp)
	x.results <- a
	x.release()
}

// launch dispatches the block to the next-ranked candidate, tagging the
// attempt with its dispatch kind (first try, straggler duplicate, or
// failover) so the observed outcome becomes a per-worker fan-out span in
// the query trace. The attempt holds x until it has reported.
func (x *blockRun) launch(stage string) bool {
	if x.next >= len(x.cands) {
		return false
	}
	a := x.tries[x.next]
	a.host, a.stage, a.start = x.cands[x.next], stage, time.Now()
	x.next++
	x.refs.Add(1)
	go a.fn()
	return true
}

// run dispatches one encoded block. Transport-level failures (worker
// restart, network blip, corrupted reply) are retried — first by one
// redial of the same worker, then by failing over down the candidate ranking,
// each remaining worker once — so a flaky or dead worker degrades accuracy
// (the engine substitutes blocks only when the whole fleet is unusable)
// rather than aborting the query. When StragglerAfter is set and the first
// worker has not answered in time, the block is duplicated to the
// next-ranked worker and the first result wins; the loser's exchange
// completes in the background, keeping its connection synchronized.
// Application-level errors come back as resp.Error and are never retried:
// the worker is healthy, the computation itself failed.
func (c *poolChamber) run(ctx context.Context, idx int, x *blockRun) (mathutil.Vec, error) {
	m := c.pool.metrics.Load()
	m.inflight.Inc()
	defer m.inflight.Dec()

	cands := c.pool.candidates(idx, x)
	if len(cands) == 0 {
		return nil, errPoolClosed
	}
	for len(x.tries) < len(cands) {
		a := &attempt{x: x}
		a.fn = a.do
		x.tries = append(x.tries, a)
	}
	if cap(x.results) < len(cands) {
		x.results = make(chan *attempt, len(cands))
	}
	x.c, x.ctx, x.next = c, ctx, 0

	x.launch(telemetry.StageFanoutDispatch)
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
			if x.launch(telemetry.StageFanoutStraggler) {
				pending++
				m.stragglers.Inc()
			}
		case a := <-x.results:
			pending--
			c.noteDispatch(a)
			if a.err != nil {
				lastErr = a.err // transport-level: retryable on another worker
				if x.launch(telemetry.StageFanoutFailover) {
					pending++
					m.failovers.Inc()
				} else if pending == 0 {
					return nil, lastErr
				}
				continue
			}
			// The reply's spans merge into the query trace whether the block
			// succeeded or failed — a failing chamber is exactly what the
			// operator wants visible in the span tree.
			c.tr.AddRemoteSpans(a.host.label, a.resp.Spans)
			if a.resp.Error != "" {
				// Application-level: the worker is healthy, the computation
				// itself failed. Never retried.
				return nil, fmt.Errorf("compman: worker %s: %s", a.host.addr, a.resp.Error)
			}
			return mathutil.Vec(a.resp.Output), nil
		}
	}
}

// noteDispatch closes one fan-out dispatch as a worker-attributed span in
// the query trace: the stage says how the exchange was launched (first
// dispatch, straggler duplicate, failover), the process label names the
// worker, and the duration covers dispatch to observed outcome. Dispatches
// that lose the first-result-wins race finish in the background unobserved
// and record no span. Nil-trace safe.
func (c *poolChamber) noteDispatch(a *attempt) {
	status := telemetry.StatusOK
	if a.err != nil || a.resp.Error != "" {
		status = telemetry.StatusError
	}
	a.span[0] = telemetry.RemoteSpan{
		Stage:  a.stage,
		Status: status,
		Millis: float64(time.Since(a.start)) / float64(time.Millisecond),
	}
	c.tr.AddRemoteSpans(a.host.label, a.span[:])
}

// candidates ranks the hosts to try for a block into x.cands, in dispatch
// order, and returns them. For an indexed block the order is the rendezvous
// (highest-random-weight) ranking of hash(worker, idx) — a deterministic
// per-block permutation, so the home assignment is stable under membership
// changes and failover walks a fixed secondary ranking. Index-less blocks
// rank by current load. Unhealthy hosts are demoted to the end (kept as last
// resorts: a dial of an empty slot may still revive them), and a saturated
// or unhealthy home is spilled to the least-loaded healthy host with free
// capacity.
func (p *WorkerPool) candidates(idx int, x *blockRun) []*workerHost {
	p.mu.Lock()
	cands := append(x.cands[:0], p.hosts...)
	p.mu.Unlock()
	x.cands = cands
	if len(cands) == 0 {
		return nil
	}
	// Each host's key, ascending in dispatch order, then a stable insertion
	// sort: a fleet is a handful of hosts.
	keys := x.keys[:0]
	for _, h := range cands {
		if idx >= 0 {
			keys = append(keys, ^rendezvousScore(h.addr, idx))
		} else {
			keys = append(keys, uint64(h.inflight.Load()))
		}
	}
	x.keys = keys
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	// Demote unhealthy hosts, preserving relative order within each class.
	sick, n := x.sick[:0], 0
	for _, h := range cands {
		if h.sick.Load() {
			sick = append(sick, h)
		} else {
			cands[n] = h
			n++
		}
	}
	copy(cands[n:], sick)
	x.sick = sick
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

// roundTrip performs one request/response exchange on the slot wc, which
// must hold a connection, decoding the reply into resp. On a transport
// failure it drops the connection. Errors are transport-level only; an
// application failure arrives in resp.Error.
func (h *workerHost) roundTrip(ctx context.Context, wc *workerConn, frame []byte, traceID string, resp *WorkResponse) error {
	deadline, _ := ctx.Deadline() // zero, clearing the last one, when ctx has none
	_ = wc.conn.SetDeadline(deadline)
	err := h.exchange(wc, frame, traceID, resp)
	if err == nil && traceID != "" && resp.TraceID != "" && resp.TraceID != traceID {
		// A reply for a different request means request/response pairing
		// slipped — same treatment as a corrupted stream.
		err = fmt.Errorf("compman: worker %s: trace echo %q for request %q (stream desynchronized)", h.addr, resp.TraceID, traceID)
	}
	if err != nil {
		// Send/receive failures and corrupted replies all leave the stream
		// unsynchronized; drop the connection rather than risk pairing
		// future replies wrongly.
		h.drop(wc)
		return err
	}
	return nil
}

// exchange sends frame on wc and decodes the reply on the framed wire into
// resp, checking its trace echo against traceID in place. The slot's read
// buffer persists across blocks.
func (h *workerHost) exchange(wc *workerConn, frame []byte, traceID string, resp *WorkResponse) error {
	if _, err := wc.conn.Write(frame); err != nil {
		return fmt.Errorf("compman: worker %s send: %w", h.addr, err)
	}
	payload, err := readWireFrame(wc.r, &wc.rbuf)
	if err != nil {
		return fmt.Errorf("compman: worker %s receive: %w", h.addr, err)
	}
	if err := decodeReply(payload, resp, traceID); err != nil {
		return fmt.Errorf("compman: worker %s: %w", h.addr, err)
	}
	return nil
}

// decodeReply is the pool's decodePayload for a work response: the same
// checks as DecodeWorkResponseFrame's body, decoded into resp's storage
// (decodeWorkResponse), a trace echo of traceID kept as traceID itself.
func decodeReply(payload []byte, resp *WorkResponse, traceID string) error {
	d, err := openPayload(payload, wireMsgWorkResponse, "work response")
	if err != nil {
		return err
	}
	decodeWorkResponse(&d, resp, traceID)
	return d.close("work response")
}
