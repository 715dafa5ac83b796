// Command guptd is the hosted GUPT service: the trusted computation manager
// plus dataset manager behind a TCP endpoint. The data owner registers CSV
// datasets at startup; analysts connect with gupt-cli (or any client
// speaking the binary framed protocol of internal/compman) and can only
// ever obtain differentially private answers.
//
// Usage:
//
//	guptd -listen 127.0.0.1:7113 \
//	      -dataset census=./census.csv:budget=10:aged=0.1:header \
//	      -dataset ads=./ads.csv:budget=5
//
// Each -dataset flag is name=path followed by colon-separated options:
//
//	budget=F   lifetime privacy budget (required)
//	aged=F     fraction of rows carved into the aged, non-private sample
//	header     the CSV file has a header row
//	quantum=D  per-block timing quantum for queries on this server
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/ledger"
	"gupt/internal/telemetry"
	"gupt/internal/telemetry/audit"
	"gupt/internal/tenant"
)

type datasetFlags []string

func (d *datasetFlags) String() string     { return strings.Join(*d, ", ") }
func (d *datasetFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	log.SetPrefix("guptd: ")
	log.SetFlags(log.LstdFlags)

	var (
		listen       = flag.String("listen", "127.0.0.1:7113", "address to listen on")
		adminAddr    = flag.String("admin-addr", "", "operator admin HTTP endpoint (/metrics, /healthz, /datasets, /debug/pprof); empty disables")
		traceLog     = flag.Bool("unsafe-trace-log", false, "log per-query lifecycle traces with raw stage durations; UNSAFE where analysts can read logs (see SECURITY.md)")
		traceSlower  = flag.Duration("trace-threshold", 0, "with -unsafe-trace-log, only log queries at least this slow (0 logs all)")
		traceBufSize = flag.Int("trace-buffer", 0, "completed-trace ring capacity served at /traces (0 = default 256)")
		flightSize   = flag.Int("flight-records", 0, "flight-recorder ring capacity served at /flight and rendered by 'gupt-cli top' (0 = default 128)")
		auditDir     = flag.String("audit-dir", "", "tamper-evident audit log directory (hash-chained query records, verifiable with 'gupt-cli audit verify'); empty disables")
		auditMax     = flag.Int64("audit-max-bytes", 0, "rotate audit segments at this size (0 = default 4MiB)")
		auditFsync   = flag.Bool("audit-fsync", false, "fsync the audit log after every record (durability over throughput)")
		quantum      = flag.Duration("quantum", 0, "per-block timing quantum applied to all queries (0 disables)")
		scratch      = flag.String("scratch", "", "root for subprocess chamber scratch dirs (default: system temp)")
		state        = flag.String("state", "", "legacy budget state file; superseded by -ledger-dir")
		ledgerDir    = flag.String("ledger-dir", "", "durable privacy-ledger directory (write-ahead log + snapshots); spent budget survives crashes")
		ledgerSync   = flag.String("ledger-sync", "batched", "ledger fsync policy: 'record' (fsync every charge) or 'batched' (group commit: concurrent charges share an fsync)")
		workers      = flag.String("workers", "", "comma-separated gupt-worker addresses for cluster execution")
		workerConns  = flag.Int("worker-conns", 1, "concurrent block exchanges per worker host; engine parallelism is workers x this")
		straggler    = flag.Duration("straggler-after", 0, "duplicate a block to the next-ranked worker when its home worker is this late; first result wins (0 disables)")
		maxConc      = flag.Int("max-concurrent", 0, "deadline-aware scheduler: queries executing at once; overflow queues earliest-deadline-first (0 disables scheduling)")
		maxQueue     = flag.Int("max-queue", 0, "scheduler wait-queue bound; arrivals past it are refused with a retry hint (0 = 4x max-concurrent)")
		maxPerDs     = flag.Int("max-per-dataset", 0, "scheduler cap on concurrent queries per dataset (0 = no cap)")
		maxPerTen    = flag.Int("max-per-tenant", 0, "scheduler cap on concurrent queries per tenant (0 = no cap)")
		idle         = flag.Duration("idle", 0, "disconnect clients idle for this long (0 disables)")
		blockTimeout = flag.Duration("block-timeout", 0, "per-block execution deadline; overruns are substituted (0 disables)")
		queryTimeout = flag.Duration("query-timeout", 0, "whole-query deadline; overruns abort with budget consumed (0 disables)")
		retries      = flag.Int("retries", 0, "engine re-runs after a post-charge failure (never re-charges)")
		maxFailFrac  = flag.Float64("max-fail-frac", 0, "abort queries when more than this fraction of blocks was substituted (0 disables)")
		cacheEntries = flag.Int("cache-entries", 1024, "noisy-answer cache capacity: repeat queries are re-served their published answer at zero extra ε (0 disables)")
		cacheTTL     = flag.Duration("cache-ttl", 10*time.Minute, "expire cached answers after this long (0 keeps them until evicted)")
		tenancy      = flag.Bool("tenancy", false, "require tenant API keys: authenticate, authorize, rate-limit, and quota every request (see -tenants-file)")
		tenantsFile  = flag.String("tenants-file", "", "tenant registry file (JSON; created on first 'tenant create'); empty with -tenancy keeps tenants in memory only")
		adminToken   = flag.String("admin-token", "", "shared secret gating the admin HTTP endpoint (all routes except /healthz); empty leaves it open")
		datasets     datasetFlags
	)
	flag.Var(&datasets, "dataset", "dataset spec name=path[:budget=F][:aged=F][:header] (repeatable)")
	flag.Parse()

	if len(datasets) == 0 {
		fmt.Fprintln(os.Stderr, "guptd: at least one -dataset is required")
		flag.Usage()
		os.Exit(2)
	}

	reg := dataset.NewRegistry()
	for _, spec := range datasets {
		if err := registerSpec(reg, spec); err != nil {
			log.Fatalf("dataset %q: %v", spec, err)
		}
	}

	if *state != "" && *ledgerDir == "" {
		if _, err := os.Stat(*state); err == nil {
			if err := reg.RestoreBudgets(*state); err != nil {
				log.Fatalf("restoring budget ledger: %v", err)
			}
			log.Printf("restored budget ledger from %s", *state)
		}
	}

	var workerAddrs []string
	if *workers != "" {
		workerAddrs = strings.Split(*workers, ",")
	}

	// Tenant registry: the multi-tenant front door's principal database.
	// Nil keeps the exact single-tenant behavior of prior releases.
	var tenants *tenant.Registry
	if *tenancy {
		var err error
		tenants, err = tenant.Load(*tenantsFile)
		if err != nil {
			log.Fatalf("loading tenant registry: %v", err)
		}
		if *tenantsFile == "" {
			log.Print("WARNING: -tenancy without -tenants-file keeps tenant definitions in memory only; they will not survive a restart")
		}
		log.Printf("tenancy enabled: %d tenant(s) loaded; every request requires an API key", len(tenants.List()))
	} else if *tenantsFile != "" {
		log.Print("WARNING: -tenants-file is ignored without -tenancy")
	}

	tel := telemetry.NewRegistry()

	// Durable privacy ledger: recover spent budget from the write-ahead
	// log, then route every future charge through it (log-before-charge).
	var led *ledger.Ledger
	if *ledgerDir != "" {
		if *state != "" {
			log.Printf("-state is superseded by -ledger-dir; skipping the legacy state-file restore")
		}
		var policy ledger.SyncPolicy
		switch *ledgerSync {
		case "record":
			policy = ledger.SyncEveryRecord
		case "batched":
			policy = ledger.SyncBatched
		default:
			log.Fatalf("-ledger-sync must be 'record' or 'batched', got %q", *ledgerSync)
		}
		var err error
		led, err = ledger.Open(*ledgerDir, ledger.Options{
			Sync:      policy,
			Telemetry: tel,
			Logger:    log.Default(),
		})
		if err != nil {
			log.Fatalf("opening privacy ledger: %v", err)
		}
		if err := ledger.Attach(led, reg); err != nil {
			log.Fatalf("attaching privacy ledger: %v", err)
		}
		rec := led.Recovered()
		log.Printf("privacy ledger %s: recovered %d dataset(s), %d WAL record(s), lastSeq %d (sync=%s)",
			*ledgerDir, len(rec.Datasets), rec.WALRecords, rec.LastSeq, policy)
		if rec.TornTail {
			log.Printf("privacy ledger: truncated a torn final record (crash mid-append); spent budget is intact")
		}
		// Replay per-tenant balances into the quota ledger. Tenant-attributed
		// WAL records with tenancy off — or records naming a tenant the
		// registry no longer knows — fail closed: serving anyway would let
		// spent quota silently reset to zero.
		for name, ds := range rec.Datasets {
			if len(ds.TenantSpent) == 0 {
				continue
			}
			if tenants == nil {
				log.Fatalf("ledger %s: dataset %q has tenant-attributed spend but tenancy is off; restart with -tenancy (and the original -tenants-file)", *ledgerDir, name)
			}
			if err := tenants.SeedFromRecovery(name, ds.TenantSpent); err != nil {
				log.Fatalf("ledger %s: replaying tenant balances for dataset %q: %v", *ledgerDir, name, err)
			}
		}
	}
	statePath := *state
	if led != nil {
		statePath = "" // the WAL is authoritative; don't double-journal
	}

	// Tamper-evident audit log: every settled query and session appends a
	// hash-chained record. Opening recovers the chain tip (and truncates a
	// torn tail from a crash mid-append) before any new record is written.
	var alog *audit.Log
	if *auditDir != "" {
		var err error
		alog, err = audit.Open(*auditDir, audit.Options{MaxBytes: *auditMax, Fsync: *auditFsync})
		if err != nil {
			log.Fatalf("opening audit log: %v", err)
		}
		log.Printf("audit log %s: chain at seq %d (fsync=%v); verify with 'gupt-cli audit verify -dir %s'",
			*auditDir, alog.LastSeq(), *auditFsync, *auditDir)
	}

	cfg := compman.ServerConfig{
		DefaultQuantum:     *quantum,
		ScratchRoot:        *scratch,
		StatePath:          statePath,
		WorkerAddrs:        workerAddrs,
		IdleTimeout:        *idle,
		BlockTimeout:       *blockTimeout,
		QueryTimeout:       *queryTimeout,
		MaxQueryRetries:    *retries,
		MaxFailFrac:        *maxFailFrac,
		Logger:             log.Default(),
		Telemetry:          tel,
		Audit:              alog,
		TraceBufferSize:    *traceBufSize,
		FlightRecorderSize: *flightSize,
		CacheEntries:       *cacheEntries,
		CacheTTL:           *cacheTTL,
		Tenants:            tenants,
		WorkerConns:        *workerConns,
		StragglerAfter:     *straggler,
		Sched: compman.SchedConfig{
			MaxConcurrent: *maxConc,
			MaxQueue:      *maxQueue,
			MaxPerDataset: *maxPerDs,
			MaxPerTenant:  *maxPerTen,
		},
	}
	if *traceLog {
		log.Print("WARNING: -unsafe-trace-log exposes raw per-stage query timings in the log; " +
			"keep this log operator-private (SECURITY.md §timing)")
		cfg.TraceLogger = log.Default()
		cfg.TraceThreshold = *traceSlower
	}
	srv := compman.NewServer(reg, cfg)

	var stopAdmin func()
	if *adminAddr != "" {
		al, stop, err := serveAdmin(*adminAddr, newAdminHandler(tel, reg, led, srv, tenants, *adminToken))
		if err != nil {
			log.Fatalf("admin endpoint: %v", err)
		}
		stopAdmin = stop
		routes := "/metrics /traces /queries /budget /flight /workers /healthz /datasets /ledger /cache /debug/pprof/"
		if tenants != nil {
			routes += " /tenants"
		}
		if *adminToken != "" {
			routes += " (token-gated)"
		}
		log.Printf("admin endpoint on http://%s (%s)", al.Addr(), routes)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}

	// Graceful shutdown: on SIGINT/SIGTERM, stop serving and flush the
	// budget ledger one final time so no spend is lost.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("shutting down")
		if statePath != "" {
			if err := reg.SaveBudgets(statePath); err != nil {
				log.Printf("final budget-state flush failed: %v", err)
			}
		}
		if led != nil {
			// Flush the group-commit tail so a clean shutdown leaves
			// nothing volatile (a crash here would still only over-count).
			if err := led.Close(); err != nil {
				log.Printf("final ledger flush failed: %v", err)
			}
		}
		if alog != nil {
			if err := alog.Close(); err != nil {
				log.Printf("closing audit log: %v", err)
			}
		}
		if stopAdmin != nil {
			stopAdmin()
		}
		srv.Close()
	}()

	log.Printf("serving %d dataset(s) %v on %s", len(reg.Names()), reg.Names(), l.Addr())
	if err := srv.Serve(l); err != nil {
		log.Fatal(err)
	}
}

// registerSpec parses one -dataset flag value and registers the table.
func registerSpec(reg *dataset.Registry, spec string) error {
	nameAndRest := strings.SplitN(spec, "=", 2)
	if len(nameAndRest) != 2 || nameAndRest[0] == "" {
		return fmt.Errorf("want name=path[:opts], got %q", spec)
	}
	name := nameAndRest[0]
	parts := strings.Split(nameAndRest[1], ":")
	path := parts[0]

	opts := dataset.RegisterOptions{}
	header := false
	for _, opt := range parts[1:] {
		kv := strings.SplitN(opt, "=", 2)
		switch kv[0] {
		case "header":
			header = true
		case "budget":
			if len(kv) != 2 {
				return fmt.Errorf("budget needs a value")
			}
			v, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return fmt.Errorf("budget: %w", err)
			}
			opts.TotalBudget = v
		case "aged":
			if len(kv) != 2 {
				return fmt.Errorf("aged needs a value")
			}
			v, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return fmt.Errorf("aged: %w", err)
			}
			opts.AgedFraction = v
		case "seed":
			if len(kv) != 2 {
				return fmt.Errorf("seed needs a value")
			}
			v, err := strconv.ParseInt(kv[1], 10, 64)
			if err != nil {
				return fmt.Errorf("seed: %w", err)
			}
			opts.Seed = v
		default:
			return fmt.Errorf("unknown option %q", kv[0])
		}
	}

	tbl, err := dataset.LoadCSVFile(path, header)
	if err != nil {
		return err
	}
	_, err = reg.Register(name, tbl, opts)
	if err != nil {
		return err
	}
	log.Printf("registered %q: %d rows x %d cols, budget %v", name, tbl.NumRows(), tbl.Dims(), opts.TotalBudget)
	return nil
}
