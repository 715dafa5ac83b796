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
	"strings"
	"sync"
	"time"

	"gupt/internal/budget"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/qcache"
	"gupt/internal/query"
	"gupt/internal/ratelimit"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
	"gupt/internal/telemetry/audit"
	"gupt/internal/tenant"
)

// ServerConfig tunes the trusted server component.
type ServerConfig struct {
	// DefaultQuantum is applied to queries that do not set their own (the
	// hosted platform's timing-attack defense). Zero leaves timing
	// normalization off unless a query requests it.
	DefaultQuantum time.Duration
	// ScratchRoot hosts per-execution scratch directories for subprocess
	// chambers; empty means the OS temp dir.
	ScratchRoot string
	// StatePath, when set, makes the budget ledger durable: the registry's
	// per-dataset spends are journaled there after every successful charge
	// and should be restored (Registry.RestoreBudgets) before serving.
	// Without it, a crash would silently refund all spent privacy budget.
	StatePath string
	// WorkerAddrs lists worker daemons (cmd/gupt-worker) to distribute
	// block executions across — the paper's cluster deployment. Empty
	// keeps execution on the server node.
	WorkerAddrs []string
	// IdleTimeout disconnects clients that send nothing for this long,
	// bounding slow-loris style connection hoarding. Zero disables it.
	IdleTimeout time.Duration
	// BlockTimeout bounds each block execution's wall-clock time from
	// outside the chamber (see core.Options.BlockTimeout): a hung chamber
	// or wedged worker connection costs one substituted block, not the
	// query. Zero disables the per-block deadline.
	BlockTimeout time.Duration
	// QueryTimeout bounds a whole query's execution. A query that exceeds
	// it aborts with its privacy charge consumed — the analyst cannot
	// convert forced slowness into refunded budget (§6.2). Zero disables.
	QueryTimeout time.Duration
	// MaxQueryRetries re-runs the engine up to this many times when a run
	// fails after its charge settled. Retries never re-charge: the ε was
	// spent once, and re-running releases at most one output for it.
	MaxQueryRetries int
	// MaxFailFrac aborts queries whose substituted-block fraction exceeds
	// it (see core.Options.MaxFailFrac). Zero disables the guard.
	MaxFailFrac float64
	// ChamberWrapper, when set, wraps every chamber the server builds —
	// in-process, subprocess and worker-pool alike. This is the fault
	// injection surface (internal/faultinject) and an ops hook for
	// instrumentation; production deployments normally leave it nil.
	ChamberWrapper func(sandbox.Chamber) sandbox.Chamber
	// Logger receives connection-level diagnostics; nil silences them.
	Logger *log.Logger
	// Telemetry is the metrics registry the server instruments into
	// (counters, gauges, bucketed latency histograms). Nil makes the server
	// create a private one; operators who serve an admin endpoint pass a
	// shared registry here (see internal/telemetry and cmd/guptd
	// -admin-addr).
	Telemetry *telemetry.Registry
	// TraceLogger, when set, receives one line per traced query with RAW
	// per-stage durations — the opt-in slow-query trace log. This reopens
	// the §6.3 timing side channel for anyone who can read the log, so it
	// must stay operator-private and off in adversarial deployments; see
	// SECURITY.md before enabling.
	TraceLogger *log.Logger
	// TraceThreshold suppresses trace-log lines for queries faster than
	// this; zero logs every query when TraceLogger is set.
	TraceThreshold time.Duration
	// Audit, when set, receives one tamper-evident record per settled query
	// and session (dataset, ε movements, outcome, trace id, bucketed
	// latency — never outputs or raw durations). When TraceLogger is also
	// set, its raw-duration lines are additionally folded in as explicit
	// unsafe_raw records, so the side-channel exposure is itself on the
	// audit record. Nil disables auditing.
	Audit *audit.Log
	// TraceBufferSize caps the /traces ring buffer of completed query
	// traces; zero means telemetry.DefaultTraceBufferSize.
	TraceBufferSize int
	// FlightRecorderSize caps the /flight ring of recent query flights
	// (bucketed timeline + fan-out attribution + cost per query, including
	// refused queries); zero means telemetry.DefaultFlightRecorderSize.
	FlightRecorderSize int
	// CacheEntries bounds the noisy-answer cache (internal/qcache): repeat
	// queries whose fingerprint matches a previously released answer are
	// served that same answer at zero additional ε. Zero or negative
	// disables caching entirely.
	CacheEntries int
	// CacheTTL expires cached answers this long after release; zero keeps
	// them until evicted. Expiry is memory reclamation, not correctness —
	// the dataset content version inside every fingerprint already makes
	// stale answers unreachable.
	CacheTTL time.Duration
	// Tenants, when set, turns on the multi-tenant front door: every
	// request must carry an API key that resolves to an enabled tenant,
	// dataset access follows the tenant's grants, per-tenant ε quotas layer
	// on top of the global budget, and per-tenant rate limits gate query
	// admission. Nil keeps the single-tenant behavior: no authentication,
	// every request runs as the default principal.
	Tenants *tenant.Registry
	// Sched configures the deadline-aware admission scheduler: bounded
	// query queue, EDF ordering, global/per-dataset/per-tenant concurrency
	// caps, RetryAfterMillis backpressure. The zero value disables it (every
	// query runs immediately, the pre-scheduler behavior).
	Sched SchedConfig
	// WorkerConns bounds concurrent block exchanges per worker host; zero
	// means 1 (one in-flight block per worker). The engine's parallelism is
	// sized to workers × WorkerConns.
	WorkerConns int
	// StragglerAfter, when positive, duplicates a block to the next-ranked
	// worker if its assigned worker has not answered within this duration
	// (first result wins). Zero disables straggler re-dispatch.
	StragglerAfter time.Duration
}

// Server is the trusted computation-manager server. It owns the dataset
// registry and the budget manager; untrusted analyst programs only ever
// see block data inside chambers and the final private outputs.
type Server struct {
	reg      *dataset.Registry
	cfg      ServerConfig
	pool     *WorkerPool // nil when executing locally
	poolErr  error       // non-nil when WorkerAddrs were set but unreachable
	tel      *telemetry.Registry
	stats    *statsCollector
	traces   *telemetry.TraceBuffer    // completed query traces, for /traces
	inflight *telemetry.Inflight       // live query table, for /queries
	flight   *telemetry.FlightRecorder // recent query flights, for /flight
	plane    *telemetry.BudgetPlane    // ε burn-down rows, for /budget
	stage    query.Stage               // shared query pipeline: budget manager, cache, run policy
	limiter  *ratelimit.Limiter        // per-tenant admission gate; nil when tenancy off
	sched    *scheduler                // deadline-aware admission; nil when disabled

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer creates a server over the given registry. If cfg.WorkerAddrs is
// set, every worker must be reachable at construction time.
func NewServer(reg *dataset.Registry, cfg ServerConfig) *Server {
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	s := &Server{
		reg:      reg,
		cfg:      cfg,
		tel:      tel,
		stats:    newStatsCollector(tel),
		traces:   telemetry.NewTraceBuffer(cfg.TraceBufferSize),
		inflight: telemetry.NewInflight(tel.Counter("compman.queries_slow")),
		flight:   telemetry.NewFlightRecorder(cfg.FlightRecorderSize),
		plane:    telemetry.NewBudgetPlane(tel),
		conns:    make(map[net.Conn]struct{}),
	}
	s.stage = query.Stage{
		Registry: reg,
		Budget:   budget.NewManager(reg),
		Cache:    qcache.New(qcache.Config{MaxEntries: cfg.CacheEntries, TTL: cfg.CacheTTL, Telemetry: tel}),
		Retries:  cfg.MaxQueryRetries,
		Timeout:  cfg.QueryTimeout,
		OnCharge: s.journalBudgets,
		OnRetry: func(attempt int, err error) {
			s.stats.recordRetry()
			s.logf("compman: retrying query (attempt %d): %v", attempt+1, err)
		},
	}
	s.stage.Budget.Instrument(tel)
	s.stage.Budget.SetBurnDown(s.plane)
	// Threshold crossings become tamper-evident audit records: "tenant X
	// fell below a quarter of its quota on Y" is exactly the event an
	// operator wants on the books before exhaustion, not after.
	s.plane.SetOnEvent(func(ev telemetry.BudgetEvent) {
		if s.cfg.Audit == nil {
			return
		}
		err := s.cfg.Audit.Append(audit.Record{
			Type:    audit.TypeBudgetThreshold,
			Dataset: ev.Dataset,
			Tenant:  ev.Tenant,
			Reason:  fmt.Sprintf("remaining_below_%g", ev.Fraction),
			Detail:  fmt.Sprintf("remaining %g of %g", ev.EpsilonRemaining, ev.EpsilonTotal),
		})
		if err != nil {
			s.logf("compman: audit append: %v", err)
		}
	})
	// Seed the burn-down plane's global rows so /budget shows every
	// registered dataset before its first charge.
	for _, name := range reg.Names() {
		if r, err := reg.Lookup(name); err == nil {
			s.plane.Seed("", name, r.Accountant.Spent(), r.Accountant.Total())
		}
	}
	s.sched = newScheduler(cfg.Sched, tel)
	if cfg.Tenants != nil {
		s.stage.Budget.SetQuotas(cfg.Tenants)
		s.limiter = ratelimit.New()
	}
	// The slow-query watchdog flags queries stuck past the deployment's
	// query deadline — the operator's early warning for a wedged worker or
	// chamber before (or without) the timeout abort.
	if cfg.QueryTimeout > 0 {
		s.inflight.StartWatchdog(cfg.QueryTimeout, time.Second)
	}
	if len(cfg.WorkerAddrs) > 0 {
		pool, err := NewWorkerPoolConfig(PoolConfig{
			Addrs:          cfg.WorkerAddrs,
			ConnsPerWorker: cfg.WorkerConns,
			StragglerAfter: cfg.StragglerAfter,
		})
		if err != nil {
			// Fail queries, not the constructor: the operator sees the
			// cause both in the log and on every refused query.
			s.poolErr = err
			s.logf("compman: worker pool unavailable: %v", err)
		} else {
			s.pool = pool
			s.pool.Instrument(tel)
		}
	}
	return s
}

// Registry exposes the server's dataset registry for operator-side
// registration (the data owner's interface).
func (s *Server) Registry() *dataset.Registry { return s.reg }

// Telemetry exposes the server's metrics registry, for serving an admin
// endpoint (telemetry.AdminHandler) or asserting counters in tests.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// Traces returns the completed-trace ring buffer's snapshots, newest
// first — the /traces admin endpoint's data source. Durations are
// bucketed (§6.3).
func (s *Server) Traces() []telemetry.TraceSnapshot { return s.traces.Snapshots() }

// LiveQueries returns the in-flight query table (stage + elapsed bucket),
// the /queries admin endpoint's data source.
func (s *Server) LiveQueries() []telemetry.InflightSnapshot { return s.inflight.Snapshots() }

// Flights returns the query flight recorder's ring, newest first — the
// /flight admin endpoint's data source. Every timing inside is bucketed.
func (s *Server) Flights() []telemetry.FlightRecord { return s.flight.Snapshots() }

// BudgetRows returns the ε burn-down plane's rows (remaining budget, EWMA
// burn rate, time-to-exhaustion per tenant/dataset) — the /budget admin
// endpoint's data source.
func (s *Server) BudgetRows() []telemetry.BudgetRow { return s.plane.Rows() }

// CacheStats snapshots the noisy-answer cache's counters — the /cache
// admin endpoint's data source. All zeros when caching is disabled.
func (s *Server) CacheStats() qcache.Stats { return s.stage.Cache.Stats() }

// WorkerStats snapshots the per-worker fleet view (in-flight, answered and
// failed counts, health) — the /workers admin endpoint's data source. Nil
// when the server executes locally (no worker pool).
func (s *Server) WorkerStats() []telemetry.WorkerStatus {
	if s.pool == nil {
		return nil
	}
	return s.pool.WorkerStats()
}

// InvalidateCache drops every cached answer for the named dataset,
// returning the count. Mutation paths call it after bumping the dataset's
// content version; the version bump alone already guarantees correctness.
func (s *Server) InvalidateCache(dataset string) int { return s.stage.Cache.Invalidate(dataset) }

// Addr returns the address Serve is listening on, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Serve accepts connections on l until Close is called. It blocks.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("compman: server closed")
	}
	s.listener = l
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("compman: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.tel.Gauge("compman.connections").Inc()
		go func() {
			defer s.wg.Done()
			defer s.tel.Gauge("compman.connections").Dec()
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting, closes live connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	if s.pool != nil {
		s.pool.Close()
	}
	s.inflight.Stop()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64*1024)
	// Connect-time handshake: a binary hello selects the framed wire;
	// anything else means a pre-binary JSON client (refused by name with
	// one terminal error line the legacy release can parse) or a garbled
	// hello (dropped silently — fail closed, § wire.go).
	if s.cfg.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
	v, err := sniffWire(conn, br, LatestWireVersion)
	if err != nil {
		if errors.Is(err, ErrPeerTooOld) {
			_ = json.NewEncoder(conn).Encode(Response{Error: ErrPeerTooOld.Error()})
		}
		if err != io.EOF {
			s.logf("compman: wire sniff: %v", err)
		}
		return
	}
	s.serveBinary(conn, br, v)
}

// serveBinary is the framed-wire request loop at the negotiated version v.
// Both scratch buffers are checked out of the shared pool once per
// connection and reused for every message; a body-level decode error
// answers like a malformed JSON line, while a frame-level error (bad length
// or CRC) means the stream can no longer be trusted to be in sync and tears
// the connection down. Responses are framed at v, so a v2 client never sees
// the v3 tenant tail; a tenancy-enabled server instead refuses its requests
// at admission (no API key can arrive over v2 — fail closed).
func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader, v uint8) {
	rbuf, wbuf := getWireBuf(), getWireBuf()
	defer putWireBuf(rbuf)
	defer putWireBuf(wbuf)
	for {
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		payload, err := readWireFrame(br, rbuf)
		if err != nil {
			if err != io.EOF {
				s.logf("compman: read frame: %v", err)
			}
			return
		}
		var resp Response
		if req, derr := decodePayload(payload, wireMsgRequest, "request", decodeRequestBody); derr != nil {
			resp = Response{Error: derr.Error()}
		} else {
			resp = s.dispatch(req)
		}
		frame, err := AppendResponseFrameV((*wbuf)[:0], &resp, v)
		if err != nil {
			s.logf("compman: encode response: %v", err)
			return
		}
		if _, err := conn.Write(frame); err != nil {
			s.logf("compman: write response: %v", err)
			return
		}
		*wbuf = frame[:0]
	}
}

// dispatch is the front door: authenticate the principal, then route the
// request with tenant-scoped authorization and rate limiting. With tenancy
// off everything runs as the default principal, byte-for-byte the
// single-tenant behavior.
func (s *Server) dispatch(req *Request) Response {
	tenantID, refusal := s.resolveTenant(req)
	if refusal != nil {
		return *refusal
	}
	resp := s.dispatchAs(tenantID, req)
	// The tenant echo confirms to the client which principal the server
	// resolved its key to — an id, never the key.
	resp.Tenant = tenantID
	return resp
}

// resolveTenant authenticates the request's API key. Tenancy off admits
// everything as the default principal (""). Refusals are uniform — absent,
// unknown, and disabled keys all produce the same error — so the front door
// does not confirm which keys exist; a v2 client structurally cannot send a
// key and lands here too.
func (s *Server) resolveTenant(req *Request) (string, *Response) {
	if s.cfg.Tenants == nil {
		return "", nil
	}
	id, err := s.cfg.Tenants.Authenticate(req.APIKey)
	if err != nil {
		s.tel.Counter("tenant.auth_failures").Inc()
		return "", &Response{Error: err.Error()}
	}
	return id, nil
}

// authorizeDataset enforces the tenant's dataset grants. The refusal does
// not distinguish "no such dataset" from "not granted": an ungranted tenant
// must not be able to probe the dataset namespace.
func (s *Server) authorizeDataset(tenantID, datasetName string) *Response {
	if s.cfg.Tenants == nil {
		return nil
	}
	if s.cfg.Tenants.Authorized(tenantID, datasetName) {
		return nil
	}
	s.tel.Counter("tenant.authz_refusals").Inc()
	return &Response{Error: fmt.Sprintf("tenant %q is not authorized for dataset %q", tenantID, datasetName)}
}

// admit passes the request through the tenant's rate-limit policy. The
// release func must be called when the query finishes (it frees the
// concurrency slot); a rejection carries the retry hint and has cost
// nothing — no charge was attempted, no ε moved.
func (s *Server) admit(tenantID string) (release func(), retryAfter time.Duration, ok bool) {
	if s.limiter == nil {
		return func() {}, 0, true
	}
	info, found := s.cfg.Tenants.Get(tenantID)
	if !found {
		return func() {}, 0, true // authenticated but racing a removal; let authz decide
	}
	lim := ratelimit.Limits{QPS: info.RateQPS, Burst: info.RateBurst, MaxInflight: info.MaxInflight}
	release, retryAfter, ok = s.limiter.Acquire(tenantID, lim)
	if !ok {
		s.tel.Counter("tenant.rate_limited").Inc()
		s.tel.Counter("tenant.rate_limited." + tenantID).Inc()
	}
	return release, retryAfter, ok
}

// rateLimited builds the zero-ε rejection for a rate-limit refusal and
// audits it (with the reason and retry hint): rejections are part of the
// query record even though no budget moved, so a flood shows up in the
// books. The refusal gets a span, a ring entry and a flight record too —
// refused queries are observable queries.
func (s *Server) rateLimited(tenantID, datasetName string, retryAfter time.Duration, tr *telemetry.Trace) Response {
	resp := Response{
		Error:            "rate limited: tenant " + tenantID + " over its admission policy",
		RetryAfterMillis: maxInt64(retryAfter.Milliseconds(), 1),
		TraceID:          tr.ID,
	}
	tr.StartSpan(telemetry.StageSchedDecision).End("rate_limited")
	s.auditRefusalAs(tenantID, datasetName, &resp, "rate_limited", "rate_limited")
	s.recordRefusedTrace(tr, "rate_limited", "rate_limited", resp.RetryAfterMillis)
	return resp
}

// recordRefusedTrace publishes a refused query's trace to the ring and the
// flight recorder, so a refusal is as observable as a served query.
func (s *Server) recordRefusedTrace(tr *telemetry.Trace, outcome, reason string, retryAfterMillis int64) {
	s.traces.Add(tr, outcome)
	s.flight.Record(tr, outcome, telemetry.FlightExtra{
		Reason:           reason,
		RetryAfterMillis: retryAfterMillis,
	})
}

// schedule passes the request through the deadline-aware scheduler. A nil
// second return means the query was admitted and holds a slot until
// release is called; otherwise the refusal response is final — built and
// audited here (reason and retry hint included), always before any ε
// moved. The returned deadline is the absolute answer-by time derived from
// req.DeadlineMillis (zero when the client set none); execution must not
// outlive it.
//
// tr gets the scheduler's self-observation spans: a
// sched.queue span covering the time spent in the admission queue and a
// sched.decision span whose status carries the verdict. Refusals publish
// the trace to the ring and flight recorder before returning.
func (s *Server) schedule(ctx context.Context, tenantID string, req *Request, tr *telemetry.Trace) (release func(), deadline time.Time, refusal *Response) {
	if req.DeadlineMillis > 0 {
		deadline = time.Now().Add(time.Duration(req.DeadlineMillis) * time.Millisecond)
	}
	queue := tr.StartSpan(telemetry.StageSchedQueue)
	release, retryAfter, verdict := s.sched.admit(ctx, req.Dataset, tenantID, deadline)
	queue.End(telemetry.StatusOK)
	decision := tr.StartSpan(telemetry.StageSchedDecision)
	switch verdict {
	case schedAdmitted:
		decision.End(telemetry.StatusOK)
		// Deadline slack at admission — how much headroom admitted queries
		// actually have — feeds a bucketed histogram (§6.3: counts only).
		if !deadline.IsZero() {
			slack := time.Until(deadline)
			if slack < 0 {
				slack = 0
			}
			s.tel.Histogram("compman.sched.deadline_slack.millis", telemetry.DefaultLatencyBuckets).Observe(slack)
		}
		return release, deadline, nil
	case schedBusy:
		decision.End(telemetry.StatusRefusedBusy)
		resp := Response{
			Error:            "server overloaded: query queue is full",
			RetryAfterMillis: maxInt64(retryAfter.Milliseconds(), 1),
			TraceID:          tr.ID,
		}
		s.stats.recordOverloaded()
		s.auditRefusalAs(tenantID, req.Dataset, &resp, "overloaded", "queue_full")
		s.recordRefusedTrace(tr, "overloaded", "queue_full", resp.RetryAfterMillis)
		return nil, deadline, &resp
	case schedExpired:
		decision.End(telemetry.StatusRefusedExpired)
		resp := Response{
			Error:            "deadline unmeetable: query would expire before a slot frees up",
			RetryAfterMillis: maxInt64(retryAfter.Milliseconds(), 1),
			TraceID:          tr.ID,
		}
		s.stats.recordOverloaded()
		s.auditRefusalAs(tenantID, req.Dataset, &resp, "overloaded", "deadline_unmeetable")
		s.recordRefusedTrace(tr, "overloaded", "deadline_unmeetable", resp.RetryAfterMillis)
		return nil, deadline, &resp
	default: // schedCancelled: the connection went away; the response is unsendable
		decision.End(telemetry.StatusCancelled)
		resp := Response{Error: "query cancelled while queued", TraceID: tr.ID}
		// The client cannot see this response, but the books still should:
		// a cancelled-while-queued query is a scheduler refusal too.
		s.auditRefusalAs(tenantID, req.Dataset, &resp, "cancelled", "cancelled_while_queued")
		s.recordRefusedTrace(tr, "cancelled", "cancelled_while_queued", 0)
		return nil, deadline, &resp
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (s *Server) dispatchAs(tenantID string, req *Request) Response {
	switch req.Op {
	case OpQuantum:
		return Response{OK: true}
	case OpList:
		names := s.reg.Names()
		if s.cfg.Tenants != nil && !s.cfg.Tenants.IsAdmin(tenantID) {
			granted := names[:0]
			for _, n := range names {
				if s.cfg.Tenants.Authorized(tenantID, n) {
					granted = append(granted, n)
				}
			}
			names = granted
		}
		return Response{OK: true, Datasets: names}
	case OpStats:
		snap := s.stats.snapshot()
		return Response{OK: true, Stats: &snap}
	case OpRegister:
		// Dataset registration is the data-owner interface: admin-only under
		// tenancy. Grants do not apply — they authorize querying, not
		// (re)defining datasets.
		if s.cfg.Tenants != nil && !s.cfg.Tenants.IsAdmin(tenantID) {
			s.tel.Counter("tenant.authz_refusals").Inc()
			return Response{Error: fmt.Sprintf("tenant %q is not authorized to register datasets", tenantID)}
		}
		return s.handleRegister(req)
	case OpBudget:
		if refusal := s.authorizeDataset(tenantID, req.Dataset); refusal != nil {
			return *refusal
		}
		rem, err := s.stage.Budget.Remaining(req.Dataset)
		if err != nil {
			return errResponse(err)
		}
		return Response{OK: true, Remaining: rem}
	case OpQuery, OpSession:
		if refusal := s.authorizeDataset(tenantID, req.Dataset); refusal != nil {
			return *refusal
		}
		// The trace id is a random 128-bit hex string: unique across
		// restarts and instances, operator-meaningful for correlation,
		// never derived from analyst input. It propagates to the workers
		// over the WorkSpec and comes back to the analyst on the response.
		// The trace starts BEFORE admission so refused queries get traces
		// too — a refusal's trace carries its sched.queue/sched.decision
		// spans and lands in the ring and the flight recorder. Sessions go
		// through the same front door: one trace for the batch, the engine
		// spans repeating per member.
		tr := telemetry.NewTrace(s.tel, telemetry.NewTraceID(), req.Dataset)
		tr.Tenant = tenantID
		releaseSlot, retryAfter, ok := s.admit(tenantID)
		if !ok {
			return s.rateLimited(tenantID, req.Dataset, retryAfter, tr)
		}
		defer releaseSlot()
		schedRelease, deadline, refusal := s.schedule(context.Background(), tenantID, req, tr)
		if refusal != nil {
			return *refusal
		}
		defer schedRelease()
		start := time.Now()
		inflight := s.tel.Gauge("compman.queries_inflight")
		inflight.Inc()
		live := s.inflight.BeginTenant(tr.ID, req.Dataset, tenantID)
		tr.OnStage = live.SetStage
		var resp Response
		if req.Op == OpSession {
			resp = s.handleSession(req, tenantID, tr, deadline)
		} else {
			resp = s.handleQuery(req, tenantID, tr, deadline)
		}
		live.End()
		inflight.Dec()
		resp.TraceID = tr.ID
		outcome := queryOutcome(&resp)
		if resp.OK {
			s.stats.recordOK(time.Since(start))
			if resp.FailedBlocks > 0 {
				s.stats.recordDegraded(resp.FailedBlocks)
			}
		} else {
			s.stats.recordFailure(
				strings.Contains(resp.Error, dp.ErrBudgetExhausted.Error()),
				resp.EpsilonCharged > 0)
		}
		s.traces.Add(tr, outcome)
		s.flight.Record(tr, outcome, telemetry.FlightExtra{
			EpsilonCharged: resp.EpsilonCharged,
			Blocks:         resp.NumBlocks,
		})
		s.auditRecordAs(tenantID, req.Dataset, &resp, outcome, tr.Elapsed())
		s.logTrace(tr)
		return resp
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func errResponse(err error) Response { return Response{Error: err.Error()} }

// queryOutcome classifies a query or session response into the audit/trace
// outcome vocabulary: ok, cache_hit (a previously released answer re-served
// at zero ε), degraded (answered with substituted blocks, or a session with
// failed members — its ε was charged atomically up front), budget_refused
// (refused before any charge), aborted (failed with its charge consumed —
// the §6.2 posture), or error.
func queryOutcome(resp *Response) string {
	degraded := resp.FailedBlocks > 0
	for _, r := range resp.Session {
		degraded = degraded || r.Error != "" || r.FailedBlocks > 0
	}
	switch {
	case resp.OK && resp.CacheHit:
		return "cache_hit"
	case resp.OK && degraded:
		return "degraded"
	case resp.OK:
		return "ok"
	case strings.Contains(resp.Error, dp.ErrBudgetExhausted.Error()):
		return "budget_refused"
	case resp.EpsilonCharged > 0:
		return "aborted"
	default:
		return "error"
	}
}

// auditRecordAs appends one tamper-evident record for a settled query,
// session, or rate-limit rejection, attributed to the tenant that ran it
// ("" = single-tenant mode; the field is then omitted, keeping pre-tenancy
// chains byte-identical). Append failures are logged, not fatal, same
// stance as journalBudgets: refusing queries on a disk error would be a
// denial-of-service lever.
func (s *Server) auditRecordAs(tenantID, dataset string, resp *Response, outcome string, elapsed time.Duration) {
	if s.cfg.Audit == nil {
		return
	}
	err := s.cfg.Audit.Append(audit.Record{
		Type:                audit.TypeQuery,
		TraceID:             resp.TraceID,
		Dataset:             dataset,
		Tenant:              tenantID,
		Outcome:             outcome,
		EpsilonCharged:      resp.EpsilonCharged,
		Blocks:              resp.NumBlocks,
		LatencyBucketMillis: telemetry.BucketUpperMillis(float64(elapsed)/float64(time.Millisecond), telemetry.DefaultLatencyBuckets),
	})
	if err != nil {
		s.logf("compman: audit append: %v", err)
	}
}

// auditRefusalAs is auditRecordAs for refusals: no latency bucket (nothing
// ran), but the machine-readable reason and the retry hint the client was
// given, so `gupt-cli audit verify` replay sees every refusal with enough
// context to explain it.
func (s *Server) auditRefusalAs(tenantID, dataset string, resp *Response, outcome, reason string) {
	if s.cfg.Audit == nil {
		return
	}
	err := s.cfg.Audit.Append(audit.Record{
		Type:             audit.TypeQuery,
		TraceID:          resp.TraceID,
		Dataset:          dataset,
		Tenant:           tenantID,
		Outcome:          outcome,
		Reason:           reason,
		RetryAfterMillis: resp.RetryAfterMillis,
	})
	if err != nil {
		s.logf("compman: audit append: %v", err)
	}
}

// logTrace emits the opt-in slow-query trace line. Raw per-stage durations
// leave the process ONLY through this path, and only when the operator
// explicitly configured TraceLogger — see SECURITY.md on why that log is
// unsafe to expose to adversarial analysts. When the audit log is enabled
// too, the same line is folded in as an explicit unsafe_raw record, so the
// side-channel exposure is itself tamper-evidently recorded.
func (s *Server) logTrace(tr *telemetry.Trace) {
	if s.cfg.TraceLogger == nil || tr == nil {
		return
	}
	if elapsed := tr.Elapsed(); elapsed < s.cfg.TraceThreshold {
		return
	}
	line := tr.String()
	s.cfg.TraceLogger.Printf("%s", line)
	if s.cfg.Audit != nil {
		err := s.cfg.Audit.Append(audit.Record{
			Type:      audit.TypeUnsafeTrace,
			TraceID:   tr.ID,
			Dataset:   tr.Dataset,
			UnsafeRaw: true,
			Detail:    line,
		})
		if err != nil {
			s.logf("compman: audit append: %v", err)
		}
	}
}

// handleRegister is the data-owner path: build a table from the inline
// rows and register it with its lifetime budget.
func (s *Server) handleRegister(req *Request) Response {
	spec := req.Register
	if spec == nil {
		return Response{Error: "register op missing payload"}
	}
	ranges, err := rangesFromWire(spec.Ranges)
	if err != nil {
		return errResponse(err)
	}
	tbl := dataset.New(spec.Columns)
	for i, r := range spec.Rows {
		if err := tbl.Append(mathutil.Vec(r)); err != nil {
			return Response{Error: fmt.Sprintf("row %d: %v", i, err)}
		}
	}
	_, err = s.reg.Register(spec.Name, tbl, dataset.RegisterOptions{
		TotalBudget:  spec.TotalBudget,
		Ranges:       ranges,
		AgedFraction: spec.AgedFraction,
		Seed:         spec.Seed,
	})
	if err != nil {
		return errResponse(err)
	}
	// A (re-)registered dataset starts at a fresh content version, so old
	// cache entries are already unreachable; dropping them eagerly just
	// reclaims the memory.
	s.stage.Cache.Invalidate(spec.Name)
	if r, err := s.reg.Lookup(spec.Name); err == nil {
		s.plane.Seed("", spec.Name, r.Accountant.Spent(), r.Accountant.Total())
	}
	s.journalBudgets()
	return Response{OK: true}
}

// journalBudgets persists the ledger after a charge. Persistence failures
// are logged, not fatal: the in-memory ledger remains authoritative for
// this process's lifetime, and refusing queries on a transient disk error
// would be a denial-of-service lever.
func (s *Server) journalBudgets() {
	if s.cfg.StatePath == "" {
		return
	}
	if err := s.reg.SaveBudgets(s.cfg.StatePath); err != nil {
		s.logf("compman: journaling budgets: %v", err)
	}
}
