package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"gupt"
	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/ledger"
	"gupt/internal/mathutil"
	"gupt/internal/telemetry"
	"gupt/internal/telemetry/audit"
	"gupt/internal/tenant"
)

// Hosted-profile constants: guptd's flag defaults plus what the README
// quickstart sets.
const (
	totalBudget  = 1e9
	tenantCount  = 8
	ledgerFlush  = 2 * time.Millisecond
	cacheTTL     = 10 * time.Minute
	schedMaxConc = 8
	schedMaxQ    = 32
	workerConns  = 2
	// quotaQueries is how many queries refused_quota's tenant may afford;
	// set-up spends them, so every timed operation is refused.
	quotaQueries = 2
)

// outcome is what the caller of one operation observed.
type outcome struct {
	output  []float64
	charged float64 // ε debited for this operation
	hit     bool
	blocks  int
	err     error
}

// stack is one fully set-up system under test: the embedded Platform, or a
// compman server with the hosted profile (tenancy, batched durable ledger,
// audit log, cache, scheduler) and optionally an in-process worker fleet.
// Everything listens on loopback and keeps its files under dir.
type stack struct {
	w    *workloadDef
	dir  string
	rows []mathutil.Vec

	platform *gupt.Platform // embedded workloads only

	reg       *dataset.Registry
	tenants   *tenant.Registry
	led       *ledger.Ledger
	alog      *audit.Log
	tel       *telemetry.Registry
	srv       *compman.Server
	workers   []*compman.Worker
	addrs     []string // worker addresses
	clients   []*compman.Client
	callerID  string
	callerKey string

	registerTime time.Duration // dataset registration alone
	// seen is Σ ε the clients were charged on this stack, the figure every
	// book must agree with at the end of the run.
	seen float64
}

// newStack generates the dataset from seed and brings the system up to its
// first answered Ping: everything setup_s covers.
func newStack(w *workloadDef, seed int64, rows int, tmpRoot string) (s *stack, err error) {
	s = &stack{w: w}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	table := w.table(seed, rows)
	s.rows = table.Rows()

	if !w.hosted {
		s.platform = gupt.New()
		start := time.Now()
		err = s.platform.Register(datasetName, rawRows(s.rows), nil, gupt.DatasetOptions{TotalBudget: totalBudget})
		s.registerTime = time.Since(start)
		return s, err
	}

	if s.dir, err = os.MkdirTemp(tmpRoot, w.name+"-"); err != nil {
		return s, err
	}
	s.reg = dataset.NewRegistry()
	start := time.Now()
	if _, err = s.reg.Register(datasetName, table, dataset.RegisterOptions{TotalBudget: totalBudget, Seed: seed}); err != nil {
		return s, err
	}
	s.registerTime = time.Since(start)

	s.tel = telemetry.NewRegistry()
	s.led, err = ledger.Open(filepath.Join(s.dir, "ledger"), ledger.Options{
		Sync: ledger.SyncBatched, FlushInterval: ledgerFlush, Telemetry: s.tel,
	})
	if err != nil {
		return s, err
	}
	if err = ledger.Attach(s.led, s.reg); err != nil {
		return s, err
	}
	if s.alog, err = audit.Open(filepath.Join(s.dir, "audit"), audit.Options{}); err != nil {
		return s, err
	}
	if s.tenants, s.callerID, s.callerKey, err = newTenants(); err != nil {
		return s, err
	}
	if w.expect == expectRefused {
		if err = s.tenants.SetQuota(s.callerID, datasetName, quotaQueries*epsPerQuery); err != nil {
			return s, err
		}
	}

	for i := 0; i < w.workers; i++ {
		l, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return s, lerr
		}
		wk := compman.NewWorker(compman.WorkerConfig{})
		go wk.Serve(l) // returns when close() closes the worker
		s.workers = append(s.workers, wk)
		s.addrs = append(s.addrs, l.Addr().String())
	}

	s.srv = compman.NewServer(s.reg, compman.ServerConfig{
		Telemetry:    s.tel,
		Audit:        s.alog,
		CacheEntries: cacheEntries,
		CacheTTL:     cacheTTL,
		Tenants:      s.tenants,
		WorkerAddrs:  s.addrs,
		WorkerConns:  workerConns,
		Sched:        compman.SchedConfig{MaxConcurrent: schedMaxConc, MaxQueue: schedMaxQ},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	go s.srv.Serve(l) // returns when close() closes the server
	for i := 0; i < w.clients; i++ {
		c, derr := compman.Dial(l.Addr().String())
		if derr != nil {
			return s, derr
		}
		c.SetAPIKey(s.callerKey)
		s.clients = append(s.clients, c)
	}
	return s, s.clients[0].Ping()
}

// newTenants builds the hosted profile's principal database: tenantCount
// tenants granted the dataset, with generous rate limits so the bucket
// arithmetic runs and never refuses. The caller is the last one created.
func newTenants() (reg *tenant.Registry, id, key string, err error) {
	reg = tenant.NewRegistry()
	for i := 0; i < tenantCount; i++ {
		id = fmt.Sprintf("tenant%d", i)
		if key, err = reg.Create(id); err != nil {
			return nil, "", "", err
		}
		if err = reg.Grant(id, datasetName); err != nil {
			return nil, "", "", err
		}
		if err = reg.SetLimits(id, 1e6, 1000, 64); err != nil {
			return nil, "", "", err
		}
	}
	return reg, id, key, nil
}

// issue sends one operation as client c and reports what came back.
func (s *stack) issue(c int, q *query) outcome {
	if s.platform != nil {
		return s.issueEmbedded(q)
	}
	resp, err := s.clients[c].Query(&q.req)
	if err != nil {
		var qe *compman.QueryError
		if errors.As(err, &qe) {
			return outcome{err: err, charged: qe.EpsilonCharged}
		}
		return outcome{err: err}
	}
	return outcome{output: resp.Output, charged: resp.EpsilonCharged, hit: resp.CacheHit, blocks: resp.NumBlocks}
}

func (s *stack) issueEmbedded(q *query) outcome {
	gq := gupt.Query{
		Dataset:      datasetName,
		Program:      resolveProgram(q.req.Program),
		OutputRanges: dpRanges(q.req.OutputRanges),
		Epsilon:      q.req.Epsilon,
		BlockSize:    q.req.BlockSize,
		Seed:         q.req.Seed,
		Quantum:      time.Duration(q.req.QuantumMillis) * time.Millisecond,
	}
	if q.req.Mode == "loose" {
		gq.Mode = gupt.Loose
	}
	res, err := s.platform.Run(context.Background(), gq)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{output: res.Output, charged: res.EpsilonSpent, hit: res.CacheHit, blocks: res.NumBlocks}
}

// exhaustQuota spends refused_quota's tenant quota with real queries, so
// all four books record the spend and every later operation is refused.
func (s *stack) exhaustQuota(g *generator) error {
	for i := 0; i < quotaQueries; i++ {
		o := s.issue(0, g.next())
		if o.err != nil {
			return fmt.Errorf("spending the quota: %w", o.err)
		}
		s.seen += o.charged
	}
	return nil
}

// checkBooks requires every book of ε to agree with what the clients saw.
func (s *stack) checkBooks() error {
	const tol = 1e-6
	near := func(a, b float64) bool { return a-b < tol && b-a < tol }
	if s.platform != nil {
		remaining, err := s.platform.RemainingBudget(datasetName)
		if err != nil {
			return err
		}
		if spent := totalBudget - remaining; !near(spent, s.seen) {
			return fmt.Errorf("books disagree: accountant spent %v, clients saw %v", spent, s.seen)
		}
		return nil
	}
	r, err := s.reg.Lookup(datasetName)
	if err != nil {
		return err
	}
	ledgerSpent := s.led.Spent(datasetName)
	acct := r.Accountant.Spent()
	tenantSpent := s.tenants.Spent(s.callerID, datasetName)
	if !near(ledgerSpent, s.seen) || !near(acct, s.seen) || !near(tenantSpent, s.seen) {
		return fmt.Errorf("books disagree: ledger %v, accountant %v, tenant %v, clients saw %v",
			ledgerSpent, acct, tenantSpent, s.seen)
	}
	return nil
}

// close tears the stack down and removes its files. It is safe on a
// partially built stack.
func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	for _, wk := range s.workers {
		wk.Close()
	}
	if s.led != nil {
		s.led.Close()
	}
	if s.alog != nil {
		s.alog.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}
