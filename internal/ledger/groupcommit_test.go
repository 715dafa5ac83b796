package ledger

import (
	"os"
	"sync"
	"testing"

	"gupt/internal/dp"
	"gupt/internal/telemetry"
)

// groupCommitLedger opens a batched ledger with telemetry, binds one
// dataset and settles one warm-up charge, so the unwaited register record
// is already durable and every later counter delta is charges only.
// appended, when non-nil, receives one value per record written.
func groupCommitLedger(t *testing.T, appended chan<- struct{}) (*Ledger, *Backed, *telemetry.Registry) {
	t.Helper()
	tel := telemetry.NewRegistry()
	opts := Options{Sync: SyncBatched, SnapshotThreshold: -1, Telemetry: tel}
	if appended != nil {
		opts.CrashPoint = func(point string) {
			if point == CrashAfterAppend {
				appended <- struct{}{}
			}
		}
	}
	l := openTest(t, t.TempDir(), opts)
	b, err := l.Bind("ds", dp.NewAccountant(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Spend("warm-up", 0.01); err != nil {
		t.Fatal(err)
	}
	return l, b, tel
}

// Natural group commit, deterministically: while a flush leader is inside
// its fsync, k more records are appended; once it returns, exactly one
// further fsync covers all k. This is the amortisation the accumulation
// window used to buy with a timer.
func TestGroupCommitBatchesBehindInFlightFsync(t *testing.T) {
	const k = 8
	appended := make(chan struct{}, k+3) // register, warm-up, the leader's, k followers
	l, b, tel := groupCommitLedger(t, appended)
	<-appended // register
	<-appended // warm-up
	fsyncs, synced := tel.Counter("ledger.fsyncs"), tel.Counter("ledger.synced_records")
	fsyncs0, synced0 := fsyncs.Value(), synced.Value()

	// Hold the next flush leader inside its fsync.
	entered, release := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	l.wal.leaderSync = func(f *os.File) error {
		hold.Do(func() {
			close(entered)
			<-release
		})
		return f.Sync()
	}

	var wg sync.WaitGroup
	charge := func() {
		defer wg.Done()
		if err := b.Spend("q", 0.01); err != nil {
			t.Errorf("charge: %v", err)
		}
	}
	wg.Add(1)
	go charge()
	<-appended
	<-entered // the lone charger leads, its fsync covers its own record only

	wg.Add(k)
	for i := 0; i < k; i++ {
		go charge()
	}
	for i := 0; i < k; i++ {
		<-appended
	}
	if got := fsyncs.Value() - fsyncs0; got != 0 {
		t.Fatalf("%d fsync(s) completed while the leader was held", got)
	}
	close(release)
	wg.Wait()

	if got := fsyncs.Value() - fsyncs0; got != 2 {
		t.Errorf("ledger.fsyncs moved by %d, want 2: the held leader's, then one for all %d followers", got, k)
	}
	if got := synced.Value() - synced0; got != 1+k {
		t.Errorf("ledger.synced_records moved by %d, want %d", got, 1+k)
	}
	if st := l.Status(); st.Synced != st.Records {
		t.Errorf("synced %d of %d records after every charge was acknowledged", st.Synced, st.Records)
	}
}

// Under contention batching must be kept, not lost: chargers that append
// while a fsync is in flight share the next one, so there are fewer fsyncs
// than records.
func TestGroupCommitContendedChargersShareFsyncs(t *testing.T) {
	_, b, tel := groupCommitLedger(t, nil)
	appends, fsyncs := tel.Counter("ledger.appends"), tel.Counter("ledger.fsyncs")
	appends0, fsyncs0 := appends.Value(), fsyncs.Value()

	const chargers, perCharger = 16, 50
	var wg sync.WaitGroup
	for g := 0; g < chargers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCharger; i++ {
				if err := b.Spend("q", 0.01); err != nil {
					t.Errorf("charge: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	na, nf := appends.Value()-appends0, fsyncs.Value()-fsyncs0
	if na != chargers*perCharger {
		t.Fatalf("ledger.appends moved by %d, want %d", na, chargers*perCharger)
	}
	if nf >= na {
		t.Errorf("%d fsyncs for %d records from %d concurrent chargers: group commit batched nothing", nf, na, chargers)
	}
	if got := tel.Counter("ledger.synced_records").Value(); got != appends.Value() {
		t.Errorf("ledger.synced_records = %d, want every one of the %d records appended", got, appends.Value())
	}
	t.Logf("%d records in %d fsyncs (%.1f per fsync)", na, nf, float64(na)/float64(nf))
}

// A lone charger waits for nobody: each charge is one fsync covering one
// record. (That no timer stands in its way is a property of the source —
// no time.Sleep in this package's non-test files — not of a stopwatch.)
func TestGroupCommitLoneChargerOneFsyncPerCharge(t *testing.T) {
	_, b, tel := groupCommitLedger(t, nil)
	fsyncs, synced := tel.Counter("ledger.fsyncs"), tel.Counter("ledger.synced_records")
	fsyncs0, synced0 := fsyncs.Value(), synced.Value()
	const n = 20
	for i := 0; i < n; i++ {
		if err := b.Spend("q", 0.01); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsyncs.Value() - fsyncs0; got != n {
		t.Errorf("ledger.fsyncs moved by %d over %d charges, want one each", got, n)
	}
	if got := synced.Value() - synced0; got != n {
		t.Errorf("ledger.synced_records moved by %d over %d charges, want batches of 1", got, n)
	}
}
