package ledger

import (
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gupt/internal/dp"
	"gupt/internal/telemetry"
)

// ErrClosed is returned by operations on a closed ledger.
var ErrClosed = errors.New("ledger: closed")

// Crash points, for the kill-test matrix (Options.CrashPoint). Production
// code never sets the hook; tests use it to SIGKILL the process at exact
// fsync and rename boundaries and prove recovery never under-counts.
const (
	CrashAfterAppend          = "append.after-write"             // record written, not yet fsync'd
	CrashAfterSync            = "append.after-fsync"             // record durable, accountant not yet debited
	CrashAfterSpend           = "charge.after-spend"             // accountant debited, ack not yet returned
	CrashAfterRefund          = "refund.after-write"             // refund written (possibly volatile)
	CrashAfterSnapshot        = "compact.after-snapshot"         // snapshot renamed, old WAL still whole
	CrashAfterWALSwap         = "compact.after-swap"             // fresh WAL renamed into place
	CrashBeforeSnapshotRename = "compact.before-snapshot-rename" // temp written, rename pending
)

// Options configures a ledger.
type Options struct {
	// Sync selects the fsync policy; default SyncEveryRecord.
	Sync SyncPolicy
	// FlushInterval is ignored.
	//
	// Deprecated: SyncBatched has no accumulation window any more (the
	// flush leader fsyncs at once, see SyncBatched). The field stays only
	// because bench/ still sets it; the next benchmark PR deletes it
	// together with bench's ledgerFlush.
	FlushInterval time.Duration
	// SnapshotThreshold compacts the WAL into a snapshot once the log file
	// exceeds this many bytes. Default 1 MiB; negative disables
	// compaction.
	SnapshotThreshold int64
	// Telemetry receives ledger counters (ledger.appends, ledger.fsyncs,
	// ledger.synced_records, ledger.refunds, ledger.snapshots,
	// ledger.recovery.replayed_records). Nil disables instrumentation.
	Telemetry *telemetry.Registry
	// Logger receives recovery warnings (torn tails, orphan refunds) and
	// non-fatal persistence diagnostics. Nil silences them.
	Logger *log.Logger
	// CrashPoint, when set, is invoked with a named durability boundary
	// just after the ledger crosses it. Test hook for the SIGKILL matrix;
	// leave nil in production.
	CrashPoint func(point string)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SnapshotThreshold == 0 {
		out.SnapshotThreshold = 1 << 20
	}
	return out
}

// datasetState is the ledger's live mirror of one dataset's budget.
type datasetState struct {
	total   float64
	spent   float64
	charges int
	// tenantSpent mirrors per-tenant settled ε (PR 8) so compaction can
	// carry the balances into the snapshot. The "" (default) principal is
	// never in the map.
	tenantSpent map[string]float64
}

func (st *datasetState) addTenantSpent(tenant string, eps float64) {
	if tenant == "" {
		return
	}
	if st.tenantSpent == nil {
		st.tenantSpent = make(map[string]float64)
	}
	st.tenantSpent[tenant] += eps
}

// Ledger is the durable privacy-budget ledger for one directory. All
// mutation flows through a single mutex; group-commit waiting happens
// outside it, so charge throughput under SyncBatched is bounded by fsync
// bandwidth, not fsync latency.
//
// Lock ordering: Ledger.mu is acquired before dp.Accountant's internal
// mutex (Bind and charge call Accountant methods while holding mu), and
// dataset.Registry's lock is acquired before Ledger.mu (the registration
// hook binds under the registry lock). Nothing ever takes these in the
// reverse order: the ledger never calls into the registry, and the
// accountant calls into nothing. Registry.mu → Ledger.mu → Accountant.mu.
type Ledger struct {
	opts Options
	dir  string

	mu     sync.Mutex
	wal    *wal
	state  map[string]*datasetState
	seq    uint64
	closed bool
	// poisoned latches when a compaction published a fresh WAL whose
	// rename could not be made durable (directory fsync failed after the
	// point of no return). New appends would land on an inode a crash
	// might orphan — the under-count direction — so the ledger fails all
	// further mutation closed until the operator intervenes.
	poisoned error

	snapshotSeq uint64
	snapshotAt  time.Time
	recovered   *Recovered // boot-time replay, for Status and diagnostics

	appends       *telemetry.Counter
	fsyncs        *telemetry.Counter
	syncedRecords *telemetry.Counter
	refunds       *telemetry.Counter
	snapshots     *telemetry.Counter
	replayed      *telemetry.Counter
	cacheHitsRec  *telemetry.Counter
}

// Open recovers the ledger directory (creating it if absent) and returns a
// ledger ready for appends. Recovery replays snapshot + WAL tail,
// truncates a torn final record, and fails on interior corruption.
func Open(dir string, opts Options) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("ledger: create dir: %w", err)
	}
	rec, err := Recover(dir, opts.Logger)
	if err != nil {
		return nil, err
	}
	w, err := openWAL(dir, rec.WALSize, rec.LastSeq)
	if err != nil {
		return nil, err
	}
	l := &Ledger{
		opts:        opts.withDefaults(),
		dir:         dir,
		wal:         w,
		state:       make(map[string]*datasetState, len(rec.Datasets)),
		seq:         rec.LastSeq,
		snapshotSeq: rec.SnapshotSeq,
		snapshotAt:  rec.SnapshotAt,
		recovered:   rec,
	}
	for name, d := range rec.Datasets {
		st := &datasetState{total: d.Total, spent: d.Spent, charges: d.Charges}
		for tid, eps := range d.TenantSpent {
			st.addTenantSpent(tid, eps)
		}
		l.state[name] = st
	}
	if tel := opts.Telemetry; tel != nil {
		l.appends = tel.Counter("ledger.appends")
		l.fsyncs = tel.Counter("ledger.fsyncs")
		l.syncedRecords = tel.Counter("ledger.synced_records")
		l.refunds = tel.Counter("ledger.refunds")
		l.snapshots = tel.Counter("ledger.snapshots")
		l.replayed = tel.Counter("ledger.recovery.replayed_records")
		l.cacheHitsRec = tel.Counter("ledger.cache_hits")
		l.replayed.Add(int64(rec.WALRecords))
	}
	return l, nil
}

// Recovered returns the boot-time replay result (datasets, torn-tail flag,
// replayed record count). The map is shared; treat it as read-only.
func (l *Ledger) Recovered() *Recovered { return l.recovered }

// crash fires the test-only crash hook.
func (l *Ledger) crash(point string) {
	if l.opts.CrashPoint != nil {
		l.opts.CrashPoint(point)
	}
}

// appendLocked assigns the next sequence number, stamps the record, and
// writes it. Under SyncEveryRecord it also fsyncs before returning, so the
// record is durable at return. Callers hold l.mu.
func (l *Ledger) appendLocked(r Record) (uint64, error) {
	l.seq++
	r.Seq = l.seq
	r.At = time.Now().UnixNano()
	if err := l.wal.append(r); err != nil {
		l.seq-- // the write failed; do not burn the seq
		return 0, err
	}
	l.appends.Inc()
	l.crash(CrashAfterAppend)
	if l.opts.Sync == SyncEveryRecord {
		if err := l.wal.sync(); err != nil {
			return 0, err
		}
		l.fsyncs.Inc()
		l.syncedRecords.Inc()
		l.crash(CrashAfterSync)
	}
	return r.Seq, nil
}

// waitDurable blocks until the record with seq is covered by an fsync.
// Callers must NOT hold l.mu.
func (l *Ledger) waitDurable(seq uint64) error {
	if l.opts.Sync == SyncEveryRecord {
		return nil // appendLocked already synced
	}
	batch, err := l.wal.waitSynced(seq)
	if batch > 0 {
		l.fsyncs.Inc()
		l.syncedRecords.Add(batch)
	}
	if err != nil {
		return err
	}
	l.crash(CrashAfterSync)
	return nil
}

// usableLocked is nil while the ledger takes appends: ErrClosed after
// Close, the poisoning error after a WAL swap that could not be made
// durable. Callers hold l.mu.
func (l *Ledger) usableLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.poisoned
}

// register ensures the dataset exists in the ledger with the given total,
// appending a register record when it is new or its total changed.
func (l *Ledger) register(name string, total float64) (*datasetState, error) {
	if err := validateString("dataset name", name); err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return nil, err
	}
	st, ok := l.state[name]
	if ok && st.total == total {
		return st, nil
	}
	if _, err := l.appendLocked(Record{Type: RecordRegister, Dataset: name, Total: total}); err != nil {
		return nil, err
	}
	if !ok {
		st = &datasetState{}
		l.state[name] = st
	}
	st.total = total
	return st, nil
}

// journal is the one append step of charges and cache hits. It checks
// rec's strings, refuses on a closed, poisoned or unbound ledger, appends
// rec and, still under l.mu, runs apply with the dataset's live state and
// the record's seq. An apply error is returned at once, with no compaction
// and no durable wait: apply has already settled the record's fate (a
// refund). Otherwise journal compacts when due and acks only once the
// group commit covers the record.
func (l *Ledger) journal(rec Record, apply func(st *datasetState, seq uint64) error) error {
	if err := validateString("dataset name", rec.Dataset); err != nil {
		return err
	}
	if err := validateString("charge label", rec.Label); err != nil {
		return err
	}
	if err := validateString("tenant id", rec.Tenant); err != nil {
		return err
	}
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	st, ok := l.state[rec.Dataset]
	if !ok {
		l.mu.Unlock()
		return fmt.Errorf("ledger: dataset %q not bound", rec.Dataset)
	}
	seq, err := l.appendLocked(rec)
	if err != nil {
		// Fail closed: a record that cannot be made durable debits nothing
		// and releases no answer.
		l.mu.Unlock()
		return err
	}
	if err := apply(st, seq); err != nil {
		l.mu.Unlock()
		return err
	}
	// Snapshot and truncate the WAL once it outgrows the threshold. A
	// failed compaction leaves the WAL intact (it just keeps growing), so
	// it is reported but never loses state.
	var compactErr error
	if t := l.opts.SnapshotThreshold; t >= 0 && l.wal.size >= t {
		compactErr = l.compactLocked()
	}
	benign := compactErr != nil && l.poisoned == nil
	l.mu.Unlock()

	if err := l.waitDurable(seq); err != nil {
		// The in-memory debit stands (over-count-safe); the request fails
		// closed because its record may not be durable.
		return err
	}
	if benign && l.opts.Logger != nil {
		// Pre-rename compaction failures leave the old WAL intact; the
		// poisoned case already logged itself in compactLocked.
		l.opts.Logger.Printf("ledger: compaction failed (log keeps growing): %v", compactErr)
	}
	return nil
}

// charge is the log-before-charge path. Sequence:
//
//  1. append the charge record (durable immediately under SyncEveryRecord)
//  2. debit the in-memory accountant
//  3. if the accountant refused (exhausted), append a refund naming the
//     charge's seq and return the refusal
//  4. otherwise wait for the group commit to cover the record, then ack
//
// A crash after (1) replays a charge the analyst never saw answered —
// over-count, safe. A crash before the refund in (3) persists loses
// nothing the analyst gained. An ack in (4) is returned only once the
// record is on stable storage, so acknowledged (answer-releasing) charges
// can never be under-counted by recovery.
func (l *Ledger) charge(name, label, tenant string, eps float64, acct *dp.Accountant) error {
	if !(eps > 0) || math.IsInf(eps, 0) {
		// Same grammar as dp.checkEpsilon: reject before the WAL sees a
		// garbage (NaN/negative) epsilon that would poison replay sums.
		return fmt.Errorf("%w: got %v", dp.ErrInvalidEpsilon, eps)
	}
	rec := Record{Type: RecordCharge, Dataset: name, Label: label, Epsilon: eps, Tenant: tenant}
	return l.journal(rec, func(st *datasetState, seq uint64) error {
		st.spent += eps
		st.charges++
		st.addTenantSpent(tenant, eps)

		// The accountant's exhaustion check runs here, under the ledger
		// lock, so concurrent charges against one dataset serialize their
		// check-then-refund pairs (see the lock-ordering note on Ledger).
		spendErr := acct.Spend(label, eps)
		l.crash(CrashAfterSpend) // on the refusal path too
		if spendErr == nil {
			return nil
		}
		if _, rerr := l.appendLocked(Record{Type: RecordRefund, Dataset: name, ChargeSeq: seq, Epsilon: eps, Tenant: tenant}); rerr == nil {
			st.spent -= eps
			st.charges--
			st.addTenantSpent(tenant, -eps)
			l.refunds.Inc()
			l.crash(CrashAfterRefund)
		} else if l.opts.Logger != nil {
			// The provisional charge stays on the books — over-count, the
			// safe direction.
			l.opts.Logger.Printf("ledger: refund append failed, provisional charge %d stands: %v", seq, rerr)
		}
		return spendErr
	})
}

// cacheHit journals an ε=0 re-release of a previously published answer.
// It never touches the accountant or the dataset's spent total — a cache
// hit moves no budget by construction, and replay treats the record the
// same way — but it follows the same append/durability discipline as a
// charge so the WAL stays a complete, tamper-surviving account of every
// release. Losing one in a crash is benign (no budget direction exists to
// err in), so durability here buys auditability, not safety.
func (l *Ledger) cacheHit(name, label, tenant string) error {
	return l.journal(Record{Type: RecordCacheHit, Dataset: name, Label: label, Tenant: tenant}, func(*datasetState, uint64) error {
		l.cacheHitsRec.Inc()
		return nil
	})
}

// Spent returns the ledger's replayed+live spent total for a dataset.
func (l *Ledger) Spent(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.state[name]; ok {
		return st.spent
	}
	return 0
}

func (l *Ledger) compactLocked() error {
	// Bring the current WAL fully durable first: every in-flight group
	// commit waiter is then already satisfied, so swapping files cannot
	// strand a waiter on a stale fd.
	if err := l.wal.sync(); err != nil {
		return err
	}
	l.fsyncs.Inc()

	snap := snapshotFile{
		Version: snapshotVersion,
		LastSeq: l.seq,
		TakenAt: time.Now(),
	}
	for name, st := range l.state {
		sd := snapshotDataset{Name: name, Total: st.total, Spent: st.spent, Charges: st.charges}
		if len(st.tenantSpent) > 0 {
			sd.Tenants = make(map[string]float64, len(st.tenantSpent))
			for tid, eps := range st.tenantSpent {
				sd.Tenants[tid] = eps
			}
		}
		snap.Datasets = append(snap.Datasets, sd)
	}
	if err := writeSnapshot(l.dir, snap, func() { l.crash(CrashBeforeSnapshotRename) }); err != nil {
		return err
	}
	l.crash(CrashAfterSnapshot)

	// Fresh WAL: a temp file holding only the snapshot marker, renamed
	// over wal.log. Until the rename lands, recovery sees the new snapshot
	// plus the old WAL — whose records are all ≤ LastSeq and therefore
	// skipped on replay.
	l.seq++
	marker := Record{Type: RecordSnapshotMarker, Seq: l.seq, At: time.Now().UnixNano(), SnapshotSeq: snap.LastSeq}
	frame := EncodeRecord(nil, marker)
	tmpPath := filepath.Join(l.dir, walName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		l.seq--
		return fmt.Errorf("ledger: new wal: %w", err)
	}
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		l.seq--
		return fmt.Errorf("ledger: new wal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		l.seq--
		return fmt.Errorf("ledger: fsync new wal: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(l.dir, walName)); err != nil {
		tmp.Close()
		l.seq--
		return fmt.Errorf("ledger: commit new wal: %w", err)
	}
	// Point of no return: the directory entry now names the fresh WAL, so
	// every append from here on must target the new inode. The swap and
	// watermark updates below happen even if the directory fsync fails —
	// returning early would leave acknowledged charges landing on the old,
	// unlinked inode while recovery reads the fresh wal.log, losing them
	// (the under-count direction).
	dirErr := fsyncDir(l.dir)
	l.wal.appended.Store(l.seq)
	l.wal.flushMu.Lock()
	l.wal.synced = l.seq
	l.wal.flushMu.Unlock()
	l.wal.swap(tmp, int64(len(frame)))
	l.snapshotSeq = snap.LastSeq
	l.snapshotAt = snap.TakenAt
	l.snapshots.Inc()
	l.crash(CrashAfterWALSwap)
	if dirErr != nil {
		// Without the directory fsync the rename itself may not survive a
		// crash: recovery could resurrect the old wal.log while new charges
		// exist only on the fresh inode. The snapshot already absorbed
		// everything up to this point (it is durable and its LastSeq covers
		// all prior records), so nothing acknowledged is at risk — but no
		// FUTURE charge can be made crash-safe. Fail them closed.
		l.poisoned = fmt.Errorf("ledger: wal swap not durable (dir fsync failed): %w", dirErr)
		if l.opts.Logger != nil {
			l.opts.Logger.Printf("ledger: poisoned, failing further charges closed: %v", l.poisoned)
		}
		return l.poisoned
	}
	return nil
}

// Compact forces a snapshot regardless of the size threshold.
func (l *Ledger) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	return l.compactLocked()
}

// Close flushes and closes the WAL. Charges issued after Close fail.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.wal.close()
}

// Status is the operator view served at the admin /ledger endpoint.
type Status struct {
	Dir string
	// SyncPolicy is the configured fsync policy ("every-record",
	// "batched").
	SyncPolicy string
	// Records is the highest sequence number ever assigned (lifetime
	// record count across snapshots).
	Records uint64
	// WALBytes is the current log file size.
	WALBytes int64
	// Datasets counts datasets with ledger state.
	Datasets int
	// LastFsync is the completion time of the most recent fsync (zero
	// before the first).
	LastFsync time.Time
	// SnapshotSeq / SnapshotAt describe the newest snapshot (zero when
	// none has been taken).
	SnapshotSeq uint64
	SnapshotAt  time.Time
	// Synced is the durable sequence watermark; Records - Synced is the
	// volatile tail an immediate crash would replay provisionally.
	Synced uint64
	// RecoveredTornTail reports that boot-time recovery truncated a torn
	// final record.
	RecoveredTornTail bool
	// Poisoned, when non-empty, is the error that put the ledger into the
	// fail-closed state (a WAL swap whose rename could not be fsync'd);
	// all further charges are refused. Empty when healthy.
	Poisoned string
}

// Status snapshots the ledger's operational state.
func (l *Ledger) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	synced, lastSync := l.wal.syncedThrough()
	var poisoned string
	if l.poisoned != nil {
		poisoned = l.poisoned.Error()
	}
	return Status{
		Poisoned:          poisoned,
		Dir:               l.dir,
		SyncPolicy:        l.opts.Sync.String(),
		Records:           l.seq,
		WALBytes:          l.wal.size,
		Datasets:          len(l.state),
		LastFsync:         lastSync,
		SnapshotSeq:       l.snapshotSeq,
		SnapshotAt:        l.snapshotAt,
		Synced:            synced,
		RecoveredTornTail: l.recovered.TornTail,
	}
}
