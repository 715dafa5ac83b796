package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Snapshot compaction. When the WAL grows past Options.SnapshotThreshold,
// the ledger writes the full replayed state to snapshot.json atomically —
// write a temp file, fsync it, rename into place, fsync the directory —
// then starts a fresh WAL whose
// first record is a snapshot-marker. Every record carries a sequence
// number and recovery skips records at or below the snapshot's LastSeq, so
// a crash between the two renames (new snapshot + old WAL) replays
// nothing twice.

const (
	snapshotName    = "snapshot.json"
	snapshotVersion = 1
)

// snapshotDataset is one dataset's compacted ledger state.
type snapshotDataset struct {
	Name string `json:"name"`
	// Total is the lifetime ε budget last registered for the dataset.
	Total float64 `json:"total"`
	// Spent is the replayed cumulative ε, including provisional charges
	// whose refunds were lost to a crash (over-count-safe).
	Spent float64 `json:"spent"`
	// Charges counts settled (non-refunded) charge records.
	Charges int `json:"charges"`
	// Tenants maps tenant id → settled ε (PR 8), so per-tenant balances
	// survive WAL compaction. Absent in pre-tenancy snapshots, which decode
	// with no per-tenant attribution — exactly the legacy reading.
	Tenants map[string]float64 `json:"tenants,omitempty"`
}

type snapshotFile struct {
	Version int `json:"version"`
	// LastSeq is the highest record sequence number the snapshot absorbed;
	// WAL records at or below it are skipped during replay.
	LastSeq  uint64            `json:"lastSeq"`
	TakenAt  time.Time         `json:"takenAt"`
	Datasets []snapshotDataset `json:"datasets"`
}

// writeSnapshot atomically persists s to dir/snapshot.json. beforeRename,
// when non-nil, runs after the temp file is durable but before the rename
// publishes it — the kill-test hook for the mid-compaction crash window.
func writeSnapshot(dir string, s snapshotFile, beforeRename func()) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("ledger: marshal snapshot: %w", err)
	}
	path := filepath.Join(dir, snapshotName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("ledger: write snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("ledger: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ledger: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ledger: close snapshot: %w", err)
	}
	if beforeRename != nil {
		beforeRename()
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ledger: commit snapshot: %w", err)
	}
	if err := fsyncDir(dir); err != nil {
		return fmt.Errorf("ledger: fsync ledger dir: %w", err)
	}
	return nil
}

// readSnapshot loads dir/snapshot.json. A missing file is not an error
// (ok=false); a present-but-unreadable one is, because snapshots are
// written atomically and never legitimately half-present.
func readSnapshot(dir string) (snapshotFile, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return snapshotFile{}, false, nil
	}
	if err != nil {
		return snapshotFile{}, false, fmt.Errorf("ledger: read snapshot: %w", err)
	}
	var s snapshotFile
	if err := json.Unmarshal(data, &s); err != nil {
		return snapshotFile{}, false, fmt.Errorf("ledger: parse snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return snapshotFile{}, false, fmt.Errorf("ledger: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	return s, true, nil
}
