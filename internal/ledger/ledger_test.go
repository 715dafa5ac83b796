package ledger

import (
	"errors"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gupt/internal/dp"
	"gupt/internal/telemetry"
)

func openTest(t *testing.T, dir string, opts Options) *Ledger {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// A charge must survive close + reopen: the whole point of the ledger.
func TestChargePersistsAcrossReopen(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncEveryRecord, SyncBatched} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Sync: policy}

			l := openTest(t, dir, opts)
			acct := dp.NewAccountant(10)
			b, err := l.Bind("census", acct)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.SpendAs("", "q1", 1.5); err != nil {
				t.Fatal(err)
			}
			if err := b.SpendAs("", "q2", 0.25); err != nil {
				t.Fatal(err)
			}
			if got := acct.Spent(); got != 1.75 {
				t.Fatalf("in-memory spent = %v, want 1.75", got)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2 := openTest(t, dir, opts)
			acct2 := dp.NewAccountant(10)
			if _, err := l2.Bind("census", acct2); err != nil {
				t.Fatal(err)
			}
			if got := acct2.Spent(); got != 1.75 {
				t.Fatalf("recovered spent = %v, want 1.75", got)
			}
			if got := acct2.Remaining(); got != 8.25 {
				t.Fatalf("recovered remaining = %v, want 8.25", got)
			}
		})
	}
}

// An exhausted-budget refusal must not consume durable budget: the
// provisional charge is cancelled by a refund record.
func TestExhaustedChargeIsRefunded(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	acct := dp.NewAccountant(1)
	b, err := l.Bind("ds", acct)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SpendAs("", "ok", 0.75); err != nil {
		t.Fatal(err)
	}
	if err := b.SpendAs("", "too-big", 0.5); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("Spend(0.5) err = %v, want ErrBudgetExhausted", err)
	}
	if got := l.Spent("ds"); got != 0.75 {
		t.Fatalf("ledger spent = %v, want 0.75 (refund must cancel the refused charge)", got)
	}
	l.Close()

	l2 := openTest(t, dir, Options{})
	acct2 := dp.NewAccountant(1)
	b2, err := l2.Bind("ds", acct2)
	if err != nil {
		t.Fatal(err)
	}
	if got := acct2.Spent(); got != 0.75 {
		t.Fatalf("recovered spent = %v, want 0.75", got)
	}
	// The refused charge must still be spendable after recovery.
	if err := b2.SpendAs("", "refill", 0.25); err != nil {
		t.Fatalf("spending the refunded budget after recovery: %v", err)
	}
}

// Compaction absorbs the log prefix into a snapshot and truncates the WAL;
// totals must be identical before and after, across a reopen.
func TestCompactionPreservesTotals(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SnapshotThreshold: 1024}
	l := openTest(t, dir, opts)
	acct := dp.NewAccountant(1000)
	b, err := l.Bind("ds", acct)
	if err != nil {
		t.Fatal(err)
	}
	const n, eps = 200, 0.5
	for i := 0; i < n; i++ {
		if err := b.SpendAs("", "q", eps); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Status()
	if st.SnapshotSeq == 0 {
		t.Fatal("no snapshot taken despite a tiny threshold")
	}
	if st.WALBytes >= 1024+256 {
		t.Fatalf("WAL not truncated by compaction: %d bytes", st.WALBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	l.Close()

	l2 := openTest(t, dir, opts)
	acct2 := dp.NewAccountant(1000)
	if _, err := l2.Bind("ds", acct2); err != nil {
		t.Fatal(err)
	}
	if got, want := acct2.Spent(), float64(n)*eps; got != want {
		t.Fatalf("recovered spent = %v, want %v", got, want)
	}
	// Sequence numbers must keep increasing after recovery from snapshot.
	if l2.Status().Records < l.Status().Records {
		t.Fatalf("seq went backwards: %d < %d", l2.Status().Records, l.Status().Records)
	}
}

// Forced compaction on an explicit call, independent of the threshold.
func TestCompactExplicit(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SnapshotThreshold: -1})
	acct := dp.NewAccountant(10)
	b, _ := l.Bind("ds", acct)
	if err := b.SpendAs("", "q", 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if l.Status().SnapshotSeq == 0 {
		t.Fatal("Compact took no snapshot")
	}
	l.Close()
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Datasets["ds"].Spent; got != 2 {
		t.Fatalf("recovered spent = %v, want 2", got)
	}
}

// Register records update a changed total; rebinding with the same total
// appends nothing new.
func TestRebindTotals(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	if _, err := l.Bind("ds", dp.NewAccountant(5)); err != nil {
		t.Fatal(err)
	}
	seqAfterFirst := l.Status().Records
	if _, err := l.Bind("ds", dp.NewAccountant(5)); err != nil {
		t.Fatal(err)
	}
	if got := l.Status().Records; got != seqAfterFirst {
		t.Fatalf("idempotent rebind appended records: %d -> %d", seqAfterFirst, got)
	}
	if _, err := l.Bind("ds", dp.NewAccountant(7)); err != nil {
		t.Fatal(err)
	}
	if got := l.Status().Records; got != seqAfterFirst+1 {
		t.Fatalf("total change appended %d records, want 1", got-seqAfterFirst)
	}
	l.Close()
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Datasets["ds"].Total; got != 7 {
		t.Fatalf("recovered total = %v, want 7", got)
	}
}

// Charges to a dataset never bound fail; closed ledgers refuse charges.
func TestChargeErrors(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	acct := dp.NewAccountant(1)
	b, err := l.Bind("ds", acct)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.charge("ghost", "q", "", 0.1, acct); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("charging unbound dataset: err = %v", err)
	}
	for _, eps := range []float64{0, -1} {
		if err := b.SpendAs("", "bad", eps); !errors.Is(err, dp.ErrInvalidEpsilon) {
			t.Fatalf("Spend(%v) err = %v, want ErrInvalidEpsilon", eps, err)
		}
	}
	l.Close()
	if err := b.SpendAs("", "after-close", 0.1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Spend after Close err = %v, want ErrClosed", err)
	}
	if got := acct.Spent(); got != 0 {
		t.Fatalf("failed charges leaked into the accountant: spent = %v", got)
	}
}

// Telemetry counters move on the expected events.
func TestTelemetryCounters(t *testing.T) {
	tel := telemetry.NewRegistry()
	dir := t.TempDir()
	l := openTest(t, dir, Options{Telemetry: tel, SnapshotThreshold: 512})
	acct := dp.NewAccountant(3)
	b, _ := l.Bind("ds", acct)
	for i := 0; i < 40; i++ {
		b.SpendAs("", "q", 0.1) // the tail of these exhausts the budget → refunds
	}
	if tel.Counter("ledger.appends").Value() == 0 {
		t.Error("ledger.appends did not move")
	}
	if tel.Counter("ledger.fsyncs").Value() == 0 {
		t.Error("ledger.fsyncs did not move")
	}
	if tel.Counter("ledger.refunds").Value() == 0 {
		t.Error("ledger.refunds did not move (exhausted charges must refund)")
	}
	if tel.Counter("ledger.snapshots").Value() == 0 {
		t.Error("ledger.snapshots did not move despite a tiny threshold")
	}
	l.Close()

	tel2 := telemetry.NewRegistry()
	l2 := openTest(t, dir, Options{Telemetry: tel2})
	defer l2.Close()
	if tel2.Counter("ledger.recovery.replayed_records").Value() == 0 {
		t.Error("ledger.recovery.replayed_records did not move on reopen")
	}
}

// Status surfaces the operational facts the admin /ledger endpoint serves.
func TestStatus(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Sync: SyncBatched})
	acct := dp.NewAccountant(10)
	b, _ := l.Bind("ds", acct)
	if err := b.SpendAs("", "q", 1); err != nil {
		t.Fatal(err)
	}
	st := l.Status()
	if st.Dir != dir {
		t.Errorf("Dir = %q, want %q", st.Dir, dir)
	}
	if st.SyncPolicy != "batched" {
		t.Errorf("SyncPolicy = %q, want batched", st.SyncPolicy)
	}
	if st.Records == 0 || st.Datasets != 1 || st.WALBytes == 0 {
		t.Errorf("Status = %+v, want nonzero records/bytes and 1 dataset", st)
	}
	if st.Synced < st.Records {
		t.Errorf("acknowledged charge not covered: synced %d < records %d", st.Synced, st.Records)
	}
	if st.LastFsync.IsZero() {
		t.Error("LastFsync is zero after an acknowledged charge")
	}
}

// The group-commit path must ack only after its record is durable, and a
// quiet logger must not panic anything.
func TestBatchedAckDurability(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{
		Sync:   SyncBatched,
		Logger: log.New(os.Stderr, "", 0),
	})
	acct := dp.NewAccountant(1000)
	b, _ := l.Bind("ds", acct)
	for i := 0; i < 50; i++ {
		if err := b.SpendAs("", "q", 0.01); err != nil {
			t.Fatal(err)
		}
		// Every acknowledged charge must already be durable on disk: a
		// recovery snapshot taken *now* (same files, no close) must see at
		// least the acked total.
		if i%16 != 0 {
			continue
		}
		rec, err := Recover(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(i+1) * 0.01
		if got := rec.Datasets["ds"].Spent; got < want-1e-9 {
			t.Fatalf("after %d acks recovery sees %v, want ≥ %v", i+1, got, want)
		}
	}
}

// A directory-fsync failure after the compaction rename is past the point
// of no return: the swap must still happen (appends target the inode the
// directory entry now names) and the ledger must fail further charges
// closed, since their durability across a crash can no longer be
// guaranteed. Nothing acknowledged may be lost across a reopen.
func TestCompactDirFsyncFailurePoisons(t *testing.T) {
	calls := 0
	fsyncDir = func(dir string) error {
		calls++
		if calls == 2 { // 1st: snapshot publish; 2nd: post-rename WAL swap
			return errors.New("injected dir fsync failure")
		}
		return syncDir(dir)
	}
	defer func() { fsyncDir = syncDir }()

	dir := t.TempDir()
	l := openTest(t, dir, Options{SnapshotThreshold: -1})
	acct := dp.NewAccountant(10)
	b, err := l.Bind("ds", acct)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SpendAs("", "q", 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Compact err = %v, want the injected dir fsync failure", err)
	}
	st := l.Status()
	if st.Poisoned == "" {
		t.Fatal("Status.Poisoned empty after a post-rename dir fsync failure")
	}
	if st.SnapshotSeq == 0 {
		t.Fatal("snapshot bookkeeping lost: the rename already published it")
	}
	// The swap must have happened: the live WAL is the fresh marker-only
	// file, not the old unlinked inode (whose records recovery never sees).
	markerLen := int64(len(EncodeRecord(nil, Record{Type: RecordSnapshotMarker})))
	if st.WALBytes != markerLen {
		t.Fatalf("WALBytes = %d, want %d (fresh marker-only WAL)", st.WALBytes, markerLen)
	}
	// Charges fail closed from here on, and nothing leaks into the books.
	if err := b.SpendAs("", "q2", 1); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("Spend on poisoned ledger err = %v, want fail-closed", err)
	}
	if got := acct.Spent(); got != 3 {
		t.Fatalf("failed charge debited the accountant: spent = %v", got)
	}
	if got := l.Spent("ds"); got != 3 {
		t.Fatalf("failed charge reached the ledger books: spent = %v", got)
	}
	if err := l.Compact(); err == nil {
		t.Fatal("Compact on a poisoned ledger must refuse")
	}
	l.Close()

	// Everything acknowledged before the poison survives a reopen: the
	// snapshot absorbed it, whichever wal.log inode a crash would expose.
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Datasets["ds"].Spent; got != 3 {
		t.Fatalf("recovered spent = %v, want 3", got)
	}
}

// Over-long dataset names and labels are rejected up front: the wire
// format caps strings at maxStringLen, and truncating instead would alias
// two datasets sharing a 1024-byte prefix to one ledger entry on replay.
func TestOverLongStringsRejected(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	long := strings.Repeat("x", maxStringLen+1)
	if _, err := l.Bind(long, dp.NewAccountant(1)); err == nil {
		t.Fatal("Bind accepted an over-long dataset name")
	}
	acct := dp.NewAccountant(1)
	b, err := l.Bind("ds", acct)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SpendAs("", long, 0.1); err == nil {
		t.Fatal("Spend accepted an over-long label")
	}
	if got := acct.Spent(); got != 0 {
		t.Fatalf("rejected charge debited the accountant: spent = %v", got)
	}
	// A name exactly at the limit round-trips intact.
	edge := strings.Repeat("y", maxStringLen)
	be, err := l.Bind(edge, dp.NewAccountant(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := be.SpendAs("", "q", 0.5); err != nil {
		t.Fatal(err)
	}
	l.Close()
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Datasets[edge].Spent; got != 0.5 {
		t.Fatalf("limit-length dataset name did not round-trip: spent = %v, want 0.5", got)
	}
}
