package ledger

import (
	"testing"

	"gupt/internal/dp"
)

// TestCacheHitsAreBudgetInvariant is the ledger half of the zero-ε cache
// contract: any number of cache_hit records moves no budget — not in
// memory, not on replay. The records are still journaled (the audit trail
// must show every release, charged or not) and surface as a count after
// recovery.
func TestCacheHitsAreBudgetInvariant(t *testing.T) {
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
			const hits = 25
			for i := 0; i < hits; i++ {
				if err := b.RecordCacheHitAs("", "census:mean"); err != nil {
					t.Fatal(err)
				}
			}
			if got := acct.Spent(); got != 1.5 {
				t.Fatalf("cache hits moved in-memory budget: spent %v, want 1.5", got)
			}
			if got := acct.Queries(); got != 1 {
				t.Fatalf("cache hits counted as charges: queries %d, want 1", got)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Replay: the WAL now holds 1 charge + N cache hits. Recovery
			// must reproduce the exact pre-crash balance and report the hits
			// as a count, not a spend.
			l2 := openTest(t, dir, opts)
			rec := l2.Recovered()
			ds, ok := rec.Datasets["census"]
			if !ok {
				t.Fatal("census missing from recovery")
			}
			if ds.CacheHits != hits {
				t.Errorf("recovered CacheHits = %d, want %d", ds.CacheHits, hits)
			}
			acct2 := dp.NewAccountant(10)
			if _, err := l2.Bind("census", acct2); err != nil {
				t.Fatal(err)
			}
			if got := acct2.Spent(); got != 1.5 {
				t.Fatalf("replayed spent = %v, want 1.5 (cache hits must be budget-neutral)", got)
			}
			if got := acct2.Remaining(); got != 8.5 {
				t.Fatalf("replayed remaining = %v, want 8.5", got)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCacheHitRefusedWhenUnbound mirrors the charge path's fail-closed
// stance: a cache hit on a dataset the ledger has no binding for is an
// error, never a silent drop — the audit trail would be missing a release.
func TestCacheHitRefusedWhenUnbound(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Sync: SyncEveryRecord})
	defer l.Close()
	if err := l.cacheHit("ghost", "label", ""); err == nil {
		t.Fatal("cache hit against an unbound dataset must fail")
	}
}
