package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/budget"
	"gupt/internal/compman"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/ledger"
	"gupt/internal/mathutil"
	"gupt/internal/qcache"
	"gupt/internal/ratelimit"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
	"gupt/internal/telemetry/audit"
	"gupt/internal/tenant"
)

// The traced pass. After a shortened live phase it sends a sample of the
// workload's queries alone to the live system (the single-client latency),
// then replays the same queries one at a time through each layer's exported
// functions, in pipeline order, on bench-owned instances of those layers,
// wrapping every call in a bench-side span. The layer table is the spans'
// self times scaled to the share of them that blocks a query, and what the
// single-client latency leaves over is compman.server.unattributed_us.

// span is one bench-side trace span. Parent is the index of the enclosing
// span in the same file, -1 for a query's root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	QueryID int    `json:"query_id"`
}

// recorder keeps spans in memory. Switched off it does nothing at all, so
// replaying with it on and off prices the tracing itself.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
}

func (r *recorder) start(name string, parent, qid int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, StartNs: time.Since(r.epoch).Nanoseconds(), Parent: parent, QueryID: qid})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if i >= 0 {
		r.spans[i].EndNs = time.Since(r.epoch).Nanoseconds()
	}
}

// layerRow is one line of the layer table.
type layerRow struct {
	Layer         string  `json:"layer"`
	CallsPerQuery float64 `json:"callsPerQuery"`
	MeanUs        float64 `json:"meanUsPerCall"`
	SelfUs        float64 `json:"selfUsPerQuery"`
	// BlockingUs is the part of SelfUs a query waits for: all of it for a
	// sequential layer, 1/parallelism of it for block executions.
	BlockingUs float64 `json:"blockingUsPerQuery"`
	Share      float64 `json:"shareOfSingleClient"`
}

// tracePass is the traced pass's result beyond the metrics.
type tracePass struct {
	Workload       string     `json:"workload"`
	Queries        int        `json:"queries"`
	Parallelism    int        `json:"blockParallelism"`
	SingleClientUs float64    `json:"singleClientUs"`
	UnattributedUs float64    `json:"unattributedUs"`
	Layers         []layerRow `json:"layers"`
	Spans          []span     `json:"spans"`
}

func (tp *tracePass) writeSpans(path string) error {
	data, err := json.Marshal(tp)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (tp *tracePass) printLayerTable(w io.Writer) {
	fmt.Fprintf(w, "  layer table: %d replayed queries, block executions count 1/%d towards blocking time\n", tp.Queries, tp.Parallelism)
	fmt.Fprintf(w, "  %-28s %10s %12s %12s %12s %7s\n", "layer", "calls/q", "us/call", "self us/q", "blocking/q", "share")
	for _, r := range tp.Layers {
		fmt.Fprintf(w, "  %-28s %10.2f %12.2f %12.2f %12.2f %6.1f%%\n", r.Layer, r.CallsPerQuery, r.MeanUs, r.SelfUs, r.BlockingUs, 100*r.Share)
	}
	share := 0.0
	if tp.SingleClientUs > 0 {
		share = tp.UnattributedUs / tp.SingleClientUs
	}
	fmt.Fprintf(w, "  %-28s %10s %12s %12s %12.2f %6.1f%%\n", "compman.server.unattributed", "", "", "", tp.UnattributedUs, 100*share)
	fmt.Fprintf(w, "  %-28s %10s %12s %12s %12.2f %6.1f%%\n", "single-client query", "", "", "", tp.SingleClientUs, 100.0)
}

// parallelLayers are the spans the engine runs many at a time; enginePieces
// are all the spans core.Run covers as one call.
var (
	parallelLayers = map[string]bool{"core.view": true, "sandbox.execute": true, "compman.pool.block": true}
	enginePieces   = map[string]bool{
		"core.partition": true, "core.blocks": true, "core.view": true, "sandbox.execute": true,
		"compman.pool.block": true, "dp.percentile": true, "core.aggregate": true, "dp.noise": true,
	}
)

// layers is the bench-owned twin of the live stack's layers: the replay
// calls their exported functions directly. The live server's own instances
// are unexported, so the replay measures the same code on equal state, not
// the same objects.
type layers struct {
	s   *stack
	dir string

	tenants  *tenant.Registry
	callerID string
	key      string
	limiter  *ratelimit.Limiter
	cache    *qcache.Cache
	reg      *dataset.Registry
	mgr      *budget.Manager
	led      *ledger.Ledger
	alog     *audit.Log
	tel      *telemetry.Registry
	traces   *telemetry.TraceBuffer
	flight   *telemetry.FlightRecorder
	pool     *compman.WorkerPool
	version  uint64
	parallel int // how many block executions the live path overlaps

	wbuf      []byte
	wireBytes int
}

// newLayers builds the twin. cacheFill pre-loads the cache with that many
// unrelated entries so puts evict exactly when the live cache's do.
func newLayers(s *stack, tmpRoot string, cacheFill int) (l *layers, err error) {
	l = &layers{s: s, parallel: runtime.GOMAXPROCS(0)}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	l.reg = dataset.NewRegistry()
	table, err := dataset.FromRows(nil, s.rows)
	if err != nil {
		return l, err
	}
	r, err := l.reg.Register(datasetName, table, dataset.RegisterOptions{TotalBudget: totalBudget})
	if err != nil {
		return l, err
	}
	l.version = r.ContentVersion()
	l.mgr = budget.NewManager(l.reg)
	if !s.w.hosted {
		return l, nil
	}

	if l.dir, err = os.MkdirTemp(tmpRoot, s.w.name+"-replay-"); err != nil {
		return l, err
	}
	l.tel = telemetry.NewRegistry()
	l.mgr.Instrument(l.tel)
	l.mgr.SetBurnDown(telemetry.NewBudgetPlane(l.tel))
	// Compaction is off so the WAL's size is the bytes the replay wrote.
	l.led, err = ledger.Open(filepath.Join(l.dir, "ledger"), ledger.Options{
		Sync: ledger.SyncBatched, FlushInterval: ledgerFlush, SnapshotThreshold: -1, Telemetry: l.tel,
	})
	if err != nil {
		return l, err
	}
	if err = ledger.Attach(l.led, l.reg); err != nil {
		return l, err
	}
	if l.alog, err = audit.Open(filepath.Join(l.dir, "audit"), audit.Options{}); err != nil {
		return l, err
	}
	if l.tenants, l.callerID, l.key, err = newTenants(); err != nil {
		return l, err
	}
	if s.w.expect == expectRefused {
		spent := quotaQueries * epsPerQuery
		if err = l.tenants.SetQuota(l.callerID, datasetName, spent); err != nil {
			return l, err
		}
		if err = l.tenants.SeedSpent(l.callerID, datasetName, spent); err != nil {
			return l, err
		}
	}
	l.mgr.SetQuotas(l.tenants)
	l.limiter = ratelimit.New()
	l.traces = telemetry.NewTraceBuffer(0)
	l.flight = telemetry.NewFlightRecorder(0)
	l.cache = qcache.New(qcache.Config{MaxEntries: cacheEntries, TTL: cacheTTL, Telemetry: l.tel})
	for i := 0; i < cacheFill; i++ {
		h := qcache.NewHasher()
		h.Str("prefill")
		h.Int(i)
		l.cache.Put(h.Sum(), datasetName, compman.Response{}, 160)
	}
	if len(s.addrs) > 0 {
		l.pool, err = compman.NewWorkerPoolConfig(compman.PoolConfig{Addrs: s.addrs, ConnsPerWorker: workerConns})
		if err != nil {
			return l, err
		}
		l.parallel = l.pool.Parallelism()
		if s.w.quantumMillis == 0 && l.parallel > runtime.GOMAXPROCS(0) {
			// CPU-bound blocks on in-process workers overlap only as far
			// as there are cores; quantum-padded ones sleep side by side.
			l.parallel = runtime.GOMAXPROCS(0)
		}
	}
	return l, nil
}

func (l *layers) close() {
	if l.pool != nil {
		l.pool.Close()
	}
	if l.led != nil {
		l.led.Close()
	}
	if l.alog != nil {
		l.alog.Close()
	}
	if l.dir != "" {
		os.RemoveAll(l.dir)
	}
}

// fingerprint is the bench-side twin of compman's unexported query
// fingerprint: the same fields through the same qcache.Hasher calls. A
// non-empty salt yields a key no release was stored under, which forces the
// miss path.
func fingerprint(req *compman.Request, tenantID string, version uint64, salt string) qcache.Fingerprint {
	h := qcache.NewHasher()
	h.Int(2)
	h.Str(tenantID)
	h.Str(string(compman.OpQuery))
	h.Str(req.Dataset)
	h.U64(version)
	ps := req.Program
	h.Str(ps.Type)
	h.Int(ps.Col)
	h.Int(ps.ColB)
	h.F64(ps.P)
	h.F64(ps.Lo)
	h.F64(ps.Hi)
	h.Int(ps.Bins)
	h.Int(ps.K)
	h.Int(ps.FeatureDims)
	h.Int(ps.LabelCol)
	h.Int(ps.Iters)
	h.F64(ps.LearnRate)
	h.I64(ps.Seed)
	h.Str(ps.Path)
	h.Strs(ps.Args)
	h.Int(ps.OutputDims)
	h.Str(req.Mode)
	for _, rs := range [][]compman.RangeSpec{req.OutputRanges, req.InputRanges} {
		h.Int(len(rs))
		for _, r := range rs {
			h.F64(r.Lo)
			h.F64(r.Hi)
		}
	}
	h.Bool(false) // no translate spec
	h.F64(req.Epsilon)
	h.Bool(false) // no accuracy goal
	h.Int(req.BlockSize)
	h.Int(req.Gamma)
	h.Bool(req.AutoBlockSize)
	h.I64(req.Seed)
	h.I64(req.QuantumMillis)
	h.Bool(req.UserLevel)
	h.Int(req.UserColumn)
	h.F64(req.PercentileLow)
	h.F64(req.PercentileHigh)
	if salt != "" {
		h.Str(salt)
	}
	return h.Sum()
}

// replay pushes one query through the layers in the order the live path
// does, one span per call, and returns the answer it released (nil for a
// refusal). live is what the live system answered for the same query; it
// decides hit or miss, so replay and live take the same path.
func (l *layers) replay(rec *recorder, qid int, q *query, live outcome) ([]float64, error) {
	root := rec.start("query", -1, qid)
	defer rec.end(root)
	timed := func(name string, fn func()) {
		sp := rec.start(name, root, qid)
		fn()
		rec.end(sp)
	}
	label := datasetName + ":" + q.req.Program.Type

	// Every query that reaches the engine first takes its own deep copy of
	// the table (Table.Rows), embedded and served alike.
	var err error
	var rows []mathutil.Vec
	tableRows := func() {
		r, lerr := l.reg.Lookup(datasetName)
		if err = lerr; err == nil {
			rows = r.Private.Rows()
		}
	}

	if !l.s.w.hosted {
		if timed("dataset.rows", tableRows); err != nil {
			return nil, err
		}
		timed("budget.charge", func() { err = l.mgr.Charge(datasetName, label, q.req.Epsilon) })
		if err != nil {
			return nil, err
		}
		out, _, _, err := l.engine(rec, root, qid, &q.req, rows)
		return out, err
	}

	wire := q.req
	wire.Op, wire.APIKey = compman.OpQuery, l.key
	var frame []byte
	timed("compman.wire.req_encode", func() { frame, err = compman.AppendRequestFrame(l.wbuf[:0], &wire) })
	if err != nil {
		return nil, err
	}
	l.wireBytes += len(frame)
	var req *compman.Request
	timed("compman.wire.req_decode", func() { req, _, err = compman.DecodeRequestFrame(frame) })
	if err != nil {
		return nil, err
	}
	l.wbuf = frame[:0]

	var id string
	timed("tenant.authenticate", func() {
		if id, err = l.tenants.Authenticate(req.APIKey); err == nil && !l.tenants.Authorized(id, req.Dataset) {
			err = errors.New("replay: caller not authorized")
		}
	})
	if err != nil {
		return nil, err
	}
	admitted := false
	timed("ratelimit.acquire", func() {
		info, _ := l.tenants.Get(id)
		var release func()
		release, _, admitted = l.limiter.Acquire(id, ratelimit.Limits{QPS: info.RateQPS, Burst: info.RateBurst, MaxInflight: info.MaxInflight})
		if admitted {
			release()
		}
	})
	if !admitted {
		return nil, errors.New("replay: rate limited")
	}

	var fp qcache.Fingerprint
	timed("qcache.fingerprint", func() { fp = fingerprint(req, id, l.version, "") })

	resp := compman.Response{Tenant: id}
	outcome := "ok"
	if live.hit {
		// The live cache held this release; make the twin hold it too.
		l.cache.Put(fp, datasetName, compman.Response{
			OK: true, Output: live.output, EpsilonSpent: req.Epsilon, EpsilonCharged: req.Epsilon,
			EffectiveRanges: req.OutputRanges, NumBlocks: live.blocks, BlockSize: len(l.s.rows) / live.blocks,
		}, 200)
		var cached any
		var ok bool
		timed("qcache.get_hit", func() { cached, ok = l.cache.Get(fp) })
		if !ok {
			return nil, errors.New("replay: cache lost the entry it was just given")
		}
		resp = cached.(compman.Response)
		resp.CacheHit, resp.EpsilonCharged, resp.Tenant = true, 0, id
		timed("ledger.cache_hit", func() { err = l.mgr.CacheHitAs(id, datasetName, label) })
		if err != nil {
			return nil, err
		}
		outcome = "cache_hit"
	} else {
		timed("qcache.get_miss", func() { _, _ = l.cache.Get(fingerprint(req, id, l.version, "miss")) })
		if timed("dataset.rows", tableRows); err != nil {
			return nil, err
		}
		timed("budget.charge", func() { err = l.mgr.ChargeAs(id, datasetName, label, req.Epsilon) })
		switch {
		case err == nil:
			out, effective, blocks, eerr := l.engine(rec, root, qid, req, rows)
			if eerr != nil {
				return nil, eerr
			}
			resp = compman.Response{
				OK: true, Output: out, EpsilonSpent: req.Epsilon, EpsilonCharged: req.Epsilon,
				EffectiveRanges: effective, NumBlocks: blocks, BlockSize: len(l.s.rows) / blocks, Tenant: id,
			}
			timed("qcache.put", func() { l.cache.Put(fp, datasetName, resp, int64(160+8*len(out)+16*len(effective))) })
		case errors.Is(err, dp.ErrBudgetExhausted) && l.s.w.expect == expectRefused:
			resp.Error = err.Error()
			outcome = "budget_refused"
		default:
			return nil, err
		}
	}

	timed("telemetry.trace", func() {
		tr := telemetry.NewTrace(l.tel, telemetry.NewTraceID(), datasetName)
		tr.Tenant = id
		for _, stage := range []string{
			telemetry.StageSchedQueue, telemetry.StageSchedDecision, telemetry.StageAdmission, telemetry.StageBudget,
			telemetry.StagePartition, telemetry.StageBlocks, telemetry.StageAggregation,
		} {
			tr.StartSpan(stage).End(telemetry.StatusOK)
		}
		l.traces.Add(tr, outcome)
		l.flight.Record(tr, outcome, telemetry.FlightExtra{EpsilonCharged: resp.EpsilonCharged, Blocks: resp.NumBlocks})
		resp.TraceID = tr.ID
	})
	timed("audit.append", func() {
		err = l.alog.Append(audit.Record{
			Type: audit.TypeQuery, TraceID: resp.TraceID, Dataset: datasetName, Tenant: id, Outcome: outcome,
			EpsilonCharged: resp.EpsilonCharged, Blocks: resp.NumBlocks,
			LatencyBucketMillis: telemetry.BucketUpperMillis(5, telemetry.DefaultLatencyBuckets),
		})
	})
	if err != nil {
		return nil, err
	}
	timed("compman.wire.resp_encode", func() { frame, err = compman.AppendResponseFrame(l.wbuf[:0], &resp) })
	if err != nil {
		return nil, err
	}
	l.wireBytes += len(frame)
	var back *compman.Response
	timed("compman.wire.resp_decode", func() { back, _, err = compman.DecodeResponseFrame(frame) })
	if err != nil {
		return nil, err
	}
	l.wbuf = frame[:0]
	return back.Output, nil
}

// engine is core.Run taken apart into its exported pieces — same RNG
// streams, same order — so each piece gets a span. The caller compares the
// result with the live answer bit for bit, which is what shows the pieces
// add up to the real thing.
func (l *layers) engine(rec *recorder, root, qid int, req *compman.Request, rows []mathutil.Vec) (mathutil.Vec, []compman.RangeSpec, int, error) {
	program := resolveProgram(req.Program)
	dims := program.OutputDims()
	rng := mathutil.NewRNG(req.Seed)
	partRNG, rangeRNG, noiseRNG := rng.Split(), rng.Split(), rng.Split()
	blockSize := req.BlockSize
	if blockSize == 0 {
		blockSize = core.DefaultBlockSize(len(rows))
	}
	loose := req.Mode == "loose"

	sp := rec.start("core.partition", root, qid)
	part, err := core.MakePartition(partRNG, len(rows), blockSize, 1)
	var split dp.BudgetSplit
	if err == nil {
		if loose {
			split, err = dp.SplitLoose(req.Epsilon, dims)
		} else {
			split, err = dp.SplitTight(req.Epsilon, dims)
		}
	}
	rec.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}

	quantum := time.Duration(req.QuantumMillis) * time.Millisecond
	var chamber sandbox.Chamber = &sandbox.InProcess{Program: program, Policy: sandbox.Policy{Quantum: quantum}}
	execName := "sandbox.execute"
	if l.pool != nil {
		chamber = l.pool.Chamber(compman.WorkSpec{Program: *req.Program, QuantumMillis: req.QuantumMillis}, nil)
		execName = "compman.pool.block"
	}
	blockChamber, _ := chamber.(sandbox.BlockChamber)

	n := part.NumBlocks()
	cols := make([][]float64, dims)
	for d := range cols {
		cols[d] = make([]float64, n)
	}
	blocksSpan := rec.start("core.blocks", root, qid)
	for i := 0; i < n; i++ {
		sp := rec.start("core.view", blocksSpan, qid)
		block := part.View(rows, i)
		rec.end(sp)
		sp = rec.start(execName, blocksSpan, qid)
		var out mathutil.Vec
		if blockChamber != nil {
			out, err = blockChamber.ExecuteBlock(context.Background(), i, block)
		} else {
			out, err = chamber.Execute(context.Background(), block)
		}
		rec.end(sp)
		if err != nil || len(out) != dims {
			rec.end(blocksSpan)
			return nil, nil, 0, fmt.Errorf("replay: block %d: %v (%d dims)", i, err, len(out))
		}
		for d, v := range out {
			cols[d][i] = v
		}
	}
	rec.end(blocksSpan)

	effective := dpRanges(req.OutputRanges)
	if loose {
		sp := rec.start("dp.percentile", root, qid)
		for d := range effective {
			if effective[d], err = dp.PercentileRange(rangeRNG, cols[d], 0.25, 0.75, effective[d], split.RangeEps); err != nil {
				break
			}
		}
		rec.end(sp)
		if err != nil {
			return nil, nil, 0, err
		}
	}

	sp = rec.start("core.aggregate", root, qid)
	avgs := make(mathutil.Vec, dims)
	for d, r := range effective {
		avgs[d] = mathutil.SumClamped(cols[d], r.Lo, r.Hi) / float64(n)
	}
	rec.end(sp)

	sp = rec.start("dp.noise", root, qid)
	sens := make([]float64, dims)
	for d, r := range effective {
		sens[d] = part.Sensitivity(r.Width())
	}
	final, err := dp.LaplaceVec(noiseRNG, avgs, sens, split.AggregateEps)
	rec.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	wireRanges := make([]compman.RangeSpec, dims)
	for d, r := range effective {
		wireRanges[d] = compman.RangeSpec{Lo: r.Lo, Hi: r.Hi}
	}
	return final, wireRanges, n, nil
}

// twinRun is one pass of the sampled queries over a fresh twin of the layers.
type twinRun struct {
	l        *layers
	rec      *recorder
	replayed time.Duration // time spent inside replay
	coreRun  time.Duration // time spent inside core.Run as one call
	coreRuns int
	rows     []mathutil.Vec // the twin table's rows, for core.Run
}

func newTwinRun(cfg *runConfig, s *stack, cacheFill int, record bool) (*twinRun, error) {
	l, err := newLayers(s, cfg.tmpRoot, cacheFill)
	if err != nil {
		return nil, err
	}
	r, err := l.reg.Lookup(datasetName)
	if err != nil {
		l.close()
		return nil, err
	}
	return &twinRun{l: l, rec: &recorder{on: record, epoch: time.Now()}, rows: r.Private.Rows()}, nil
}

// query replays sampled query i and holds the answer against the live one.
func (t *twinRun) query(i int, q *query, live outcome, res *runResult) error {
	start := time.Now()
	out, err := t.l.replay(t.rec, i, q, live)
	t.replayed += time.Since(start)
	if err != nil {
		return fmt.Errorf("replaying query %d: %w", i, err)
	}
	if live.output != nil && !sameBits(out, live.output) {
		res.problem("replayed query %d released %v, the live system %v", i, out, live.output)
	}
	return nil
}

// engine times core.Run on one sampled query as the live path calls it —
// same chamber factory, same parallelism. The replay's per-piece spans run
// one block at a time; this is what the pieces cost when the engine overlaps
// them itself.
func (t *twinRun) engine(i int, q *query, live outcome, res *runResult) error {
	req := &q.req
	spec := core.RangeSpec{Mode: core.ModeTight, Output: dpRanges(req.OutputRanges)}
	if req.Mode == "loose" {
		spec.Mode = core.ModeLoose
	}
	opts := core.Options{
		Epsilon: req.Epsilon, BlockSize: req.BlockSize, Seed: req.Seed,
		Quantum: time.Duration(req.QuantumMillis) * time.Millisecond,
	}
	if pool := t.l.pool; pool != nil {
		opts.Parallelism = pool.Parallelism()
		opts.NewChamber = func(_ analytics.Program, pol sandbox.Policy) sandbox.Chamber {
			return pool.Chamber(compman.WorkSpec{Program: *req.Program, QuantumMillis: pol.Quantum.Milliseconds()}, nil)
		}
	}
	start := time.Now()
	out, err := core.Run(context.Background(), resolveProgram(req.Program), t.rows, spec, opts)
	t.coreRun += time.Since(start)
	t.coreRuns++
	if err != nil {
		return fmt.Errorf("core.Run on query %d: %w", i, err)
	}
	if !sameBits(out.Output, live.output) {
		res.problem("core.Run on query %d released %v, the live system %v", i, out.Output, live.output)
	}
	return nil
}

// coreRunUs is the mean time of core.Run as one call, 0 if it never ran.
func (t *twinRun) coreRunUs() float64 {
	if t.coreRuns == 0 {
		return 0
	}
	return micros(t.coreRun) / float64(t.coreRuns)
}

func dirSize(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// layerTable folds spans into rows: per layer, calls and mean time per
// call, self time per query (span minus the children it encloses), and the
// part of that a query waits for.
func layerTable(spans []span, queries, parallel int, singleClientUs, coreRunUs float64) ([]layerRow, float64) {
	childNs := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			childNs[sp.Parent] += sp.EndNs - sp.StartNs
		}
	}
	type acc struct {
		calls   int
		totalNs int64
		selfNs  int64
		first   int
	}
	byName := map[string]*acc{}
	for i, sp := range spans {
		if sp.Parent < 0 {
			continue // a query's root: its self time is replay glue, not a layer
		}
		a := byName[sp.Name]
		if a == nil {
			a = &acc{first: i}
			byName[sp.Name] = a
		}
		a.calls++
		a.totalNs += sp.EndNs - sp.StartNs
		a.selfNs += sp.EndNs - sp.StartNs - childNs[i]
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].first < byName[names[j]].first })

	q := float64(queries)
	var rows []layerRow
	var blocking, engineBlocking, engineRuns float64
	for _, name := range names {
		a := byName[name]
		row := layerRow{
			Layer:         name,
			CallsPerQuery: float64(a.calls) / q,
			MeanUs:        float64(a.totalNs) / float64(a.calls) / 1e3,
			SelfUs:        float64(a.selfNs) / q / 1e3,
		}
		row.BlockingUs = row.SelfUs
		if parallelLayers[name] {
			row.BlockingUs /= float64(parallel)
		}
		if singleClientUs > 0 {
			row.Share = row.BlockingUs / singleClientUs
		}
		blocking += row.BlockingUs
		rows = append(rows, row)
		if enginePieces[name] {
			engineBlocking += row.BlockingUs
		}
		if name == "core.partition" {
			engineRuns = row.CallsPerQuery // one partition per engine run
		}
	}
	if coreRunUs > 0 && engineRuns > 0 {
		// What core.Run takes as one call beyond the ideal overlap of its
		// pieces: goroutine hand-offs, the block semaphore, cores shared
		// with the load generator.
		row := layerRow{Layer: "core.run.unoverlapped", CallsPerQuery: engineRuns, MeanUs: coreRunUs}
		row.BlockingUs = coreRunUs*engineRuns - engineBlocking
		row.SelfUs = row.BlockingUs
		if singleClientUs > 0 {
			row.Share = row.BlockingUs / singleClientUs
		}
		blocking += row.BlockingUs
		rows = append(rows, row)
	}
	return rows, singleClientUs - blocking
}

// livePhase runs the workload at its own client count for a shortened
// measurement and records what only a running system produces: the
// telemetry counters' deltas and the run-level figures.
func livePhase(cfg *runConfig, s *stack, ck *checker, g *generator, res *runResult, ms metricSet) {
	w := cfg.w
	warmUp(cfg, s, ck, g)
	before := s.counters()
	beforeUse := readUsage()
	rounds := timedRounds(cfg, s, ck, g, cfg.seconds*0.4, nil)
	after := s.counters()
	cpu := readUsage().cpu - beforeUse.cpu
	var ops, wall, charged, hits float64
	var errs, latMs []float64
	for _, r := range rounds {
		latMs = append(latMs, r.latMs...)
		ops += float64(len(r.latMs))
		wall += r.wall.Seconds()
		charged += r.charged
		hits += float64(r.hits)
		errs = append(errs, r.answerErr...)
		res.Attempted += len(r.latMs)
		res.Failed += r.failed
	}
	res.Rounds = len(rounds)
	ms.set("eps_per_query", charged/ops)
	ms.set("answer_err_p50", median(errs))
	ms.set("query_p95_ms", quantile(latMs, 0.95))
	ms.set("queries_per_s", ops/wall)
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	ms.set("compman.sched.admitted", delta("compman.sched.admitted"))
	ms.set("compman.sched.queued", delta("compman.sched.queued"))
	ms.set("compman.sched.rejected", delta("compman.sched.rejected_busy")+delta("compman.sched.rejected_expired"))
	ms.set("compman.pool.redials", delta("compman.pool.redials"))
	ms.set("compman.pool.straggler_dispatches", delta("compman.pool.straggler_redispatch"))
	ms.set("qcache.hit_ratio", hits/ops)
	ms.set("qcache.evictions_per_query", delta("qcache.evictions")/ops)
	if fsyncs := delta("ledger.fsyncs"); fsyncs > 0 {
		ms.set("ledger.fsyncs_per_query", fsyncs/ops)
		ms.set("ledger.records_per_fsync", delta("ledger.synced_records")/fsyncs)
	}
	if w.hosted && delta("compman.sched.queued") != 0 {
		res.problem("scheduler queued %v queries; the workloads are sized never to queue", delta("compman.sched.queued"))
	}
	if w.workers > 0 && w.expect != expectRefused {
		blocksPerS := ops * float64(ck.blocks) / wall
		if w.quantumMillis > 0 {
			slots := float64(w.workers * workerConns)
			ms.set("compman.pool.slot_utilisation", blocksPerS/(slots*1000/float64(w.quantumMillis)))
		} else {
			ms.set("compman.pool.blocks_per_s_per_core", ops*float64(ck.blocks)/cpu.Seconds())
		}
	}
}

// tracedRun is the whole traced pass for one workload on a set-up stack.
func tracedRun(cfg *runConfig, s *stack, ck *checker, g *generator, res *runResult) (*tracePass, error) {
	w := cfg.w
	ms := newMetricSet(perLayer)
	res.Metrics = ms
	ms.set("dataset.register_us", micros(s.registerTime))

	livePhase(cfg, s, ck, g, res, ms)

	// The sample: fresh queries of the workload, each sent alone to the live
	// system and replayed through the twin straight away, so that a slow
	// spell on the box slows both sides of the layer table alike.
	fill := 0
	if w.hosted {
		fill = s.srv.CacheStats().Entries
	}
	on, err := newTwinRun(cfg, s, fill, true)
	if err != nil {
		return nil, err
	}
	defer on.l.close()
	budget := time.Duration(cfg.seconds * 0.35 * float64(time.Second))
	sample := g.batch(scaledOps(200, cfg.scale))
	outcomes := make([]outcome, 0, len(sample))
	var singleUs []float64
	start := time.Now()
	for i, q := range sample {
		if i >= 10 && time.Since(start) > budget {
			break
		}
		t0 := time.Now()
		o := s.issue(0, q)
		singleUs = append(singleUs, micros(time.Since(t0)))
		s.seen += o.charged
		res.Attempted++
		if why := ck.check(q, o); why != "" {
			res.Failed++
			res.problem("single-client op failed: %s", why)
		}
		outcomes = append(outcomes, o)
		if err := on.query(i, q, o, res); err != nil {
			return nil, err
		}
		if reachedEngine := o.output != nil && !o.hit; reachedEngine && on.coreRuns < scaledOps(20, cfg.scale) {
			if err := on.engine(i, q, o, res); err != nil {
				return nil, err
			}
		}
	}
	sample = sample[:len(outcomes)]
	ms.set("failed_frac", float64(res.Failed)/float64(res.Attempted))
	if res.Failed > 0 {
		res.Correct = false
	}
	single := mean(singleUs)
	ms.set("single_client_query_us", single)
	n := float64(len(sample))
	ms.set("compman.wire.bytes_per_query", float64(on.l.wireBytes)/n)
	if on.l.led != nil {
		ms.set("ledger.wal_bytes_per_query", float64(on.l.led.Status().WALBytes)/n)
		ms.set("audit.bytes_per_query", float64(dirSize(filepath.Join(on.l.dir, "audit")))/n)
	}

	// The same queries once more on a fresh twin with span recording off:
	// the difference prices the tracing.
	off, err := newTwinRun(cfg, s, fill, false)
	if err != nil {
		return nil, err
	}
	defer off.l.close()
	for i, q := range sample {
		if err := off.query(i, q, outcomes[i], res); err != nil {
			return nil, err
		}
	}
	ms.set("trace_overhead_frac", (on.replayed-off.replayed).Seconds()/off.replayed.Seconds())

	tp := &tracePass{Workload: w.name, Queries: len(sample), Parallelism: on.l.parallel, SingleClientUs: single, Spans: on.rec.spans}
	tp.Layers, tp.UnattributedUs = layerTable(tp.Spans, len(sample), tp.Parallelism, single, on.coreRunUs())
	ms.set("core.run_us", on.coreRunUs())
	ms.set("compman.server.unattributed_us", tp.UnattributedUs)
	for _, row := range tp.Layers {
		if row.Layer == "core.view" {
			// One view per block: all of a query's blocks, and their count.
			ms.set("core.view_us", row.SelfUs)
			ms.set("core.blocks_per_query", row.CallsPerQuery)
		} else if _, declared := ms[row.Layer+"_us"]; declared {
			ms.set(row.Layer+"_us", row.MeanUs)
		}
	}

	if err := probes(cfg, s, sample, ms); err != nil {
		return nil, err
	}
	return tp, nil
}

// counters snapshots the live server's telemetry counters (empty for the
// embedded workload, which has none).
func (s *stack) counters() map[string]int64 {
	if s.tel == nil {
		return map[string]int64{}
	}
	return s.tel.Snapshot().Counters
}
