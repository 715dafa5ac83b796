package ledger

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"gupt/internal/dp"
)

// Concurrent charges against one dataset: the §6.2 exhaustion check runs
// under the ledger lock (Registry.mu → Ledger.mu → Accountant.mu, see the
// lock-ordering note on Ledger), so exactly the charges the accountant
// accepted are on the durable books — no lost updates, no overdraft, no
// under-count after recovery. Run with -race.
func TestConcurrentChargesOneDataset(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncEveryRecord, SyncBatched} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l := openTest(t, dir, Options{Sync: policy})
			const total = 10.0
			acct := dp.NewAccountant(total)
			b, err := l.Bind("ds", acct)
			if err != nil {
				t.Fatal(err)
			}

			// 16 goroutines race 2000 charges of 0.01 against a budget that
			// only fits 1000 of them.
			const goroutines, perG = 16, 125
			const eps = 0.01
			var wg sync.WaitGroup
			var mu sync.Mutex
			var ok, exhausted int
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						err := b.SpendAs("", "race", eps)
						mu.Lock()
						switch {
						case err == nil:
							ok++
						case errors.Is(err, dp.ErrBudgetExhausted):
							exhausted++
						default:
							t.Errorf("unexpected error: %v", err)
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			if ok+exhausted != goroutines*perG {
				t.Fatalf("accounted %d outcomes, want %d", ok+exhausted, goroutines*perG)
			}
			// The accountant's tolerance admits at most the budget's worth.
			wantSpent := float64(ok) * eps
			if got := acct.Spent(); got < wantSpent-1e-6 || got > wantSpent+1e-6 {
				t.Fatalf("in-memory spent = %v, want %v (ok=%d)", got, wantSpent, ok)
			}
			if got := l.Spent("ds"); got < wantSpent-1e-6 || got > wantSpent+1e-6 {
				t.Fatalf("ledger spent = %v, want %v", got, wantSpent)
			}
			l.Close()

			// Recovery must agree with what was acknowledged.
			rec, err := Recover(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Datasets["ds"].Spent; got < wantSpent-1e-6 {
				t.Fatalf("recovered spent = %v, want ≥ %v (never under-count)", got, wantSpent)
			}
			if got := rec.Datasets["ds"].Charges; got != ok {
				t.Fatalf("recovered charges = %d, want %d", got, ok)
			}
		})
	}
}

// Group commits race compaction: a tiny snapshot threshold makes every
// few charges swap the WAL file while batched flush leaders are mid-fsync
// on it. The leader copies the fd under flushMu and swap waits for the
// syncing flag to clear, so a leader never fsyncs a closed fd (that would
// latch a sync error and fail every later charge). Run with -race.
func TestGroupCommitRacesCompaction(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{
		Sync:              SyncBatched,
		SnapshotThreshold: 256, // compact every handful of records
	})
	b, err := l.Bind("ds", dp.NewAccountant(1e6))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := b.SpendAs("", "q", 0.25); err != nil {
					t.Errorf("charge during compaction churn: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := l.Status(); st.SnapshotSeq == 0 {
		t.Fatal("no compaction happened; the race was not exercised")
	}
	l.Close()
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Datasets["ds"].Spent, float64(goroutines*perG)*0.25; got < want-1e-6 {
		t.Fatalf("recovered spent = %v, want ≥ %v", got, want)
	}
}

// The widest version of the same race: a slowed leader fsync keeps the
// group-commit leader (fd in hand) busy across entire explicit Compact
// calls issued from another goroutine, so without the flushMu handshake
// the leader would fsync the swapped-out, closed fd.
func TestExplicitCompactRacesFlushLeader(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{
		Sync:              SyncBatched,
		SnapshotThreshold: -1, // only the explicit Compact loop below
	})
	l.wal.leaderSync = func(f *os.File) error {
		time.Sleep(2 * time.Millisecond) // widens the window; nothing waits on it
		return f.Sync()
	}
	b, err := l.Bind("ds", dp.NewAccountant(1e6))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := b.SpendAs("", "q", 0.25); err != nil {
					t.Errorf("charge racing Compact: %v", err)
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := l.Compact(); err != nil {
			t.Errorf("Compact: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	l.Close()
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Datasets["ds"].Spent; got <= 0 {
		t.Fatalf("recovered spent = %v, want > 0", got)
	}
}

// Concurrent charges across several datasets sharing one ledger: group
// commits interleave across datasets without crosstalk.
func TestConcurrentChargesManyDatasets(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Sync: SyncBatched})
	names := []string{"a", "b", "c", "d"}
	backed := make(map[string]*Backed, len(names))
	for _, n := range names {
		b, err := l.Bind(n, dp.NewAccountant(1000))
		if err != nil {
			t.Fatal(err)
		}
		backed[n] = b
	}
	var wg sync.WaitGroup
	const perDataset = 100
	for _, n := range names {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			for i := 0; i < perDataset; i++ {
				if err := backed[n].SpendAs("", "q", 0.5); err != nil {
					t.Errorf("%s: %v", n, err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	l.Close()
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if got := rec.Datasets[n].Spent; got != perDataset*0.5 {
			t.Fatalf("%s recovered spent = %v, want %v", n, got, perDataset*0.5)
		}
	}
}
