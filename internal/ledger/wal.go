package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncEveryRecord fsyncs after each append before acknowledging it.
	// Maximum durability, one fsync per charge on the query path.
	SyncEveryRecord SyncPolicy = iota
	// SyncBatched acknowledges a record only once an fsync covering it has
	// completed, but lets concurrent appenders share one fsync (natural
	// group commit): the first waiter becomes the flush leader and fsyncs
	// at once, outside the ledger mutex; whoever appends while that fsync
	// is in flight rides the next one, which covers everything written
	// before it starts. There is no accumulation window: a lone charger
	// pays one fsync, a waiter under load at most the fsync in flight plus
	// its own. Same never-under-count guarantee as SyncEveryRecord — an
	// acknowledged charge is always durable — at a fraction of the fsync
	// cost under concurrency.
	SyncBatched
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryRecord:
		return "every-record"
	case SyncBatched:
		return "batched"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

const walName = "wal.log"

// wal owns the open log file and the group-commit machinery.
//
// Locking: the owning Ledger serializes all writes (and file swaps during
// compaction) under its own mutex, so wal fields written on the append
// path need no extra lock. The group-commit state is guarded by flushMu,
// which is never held across an fsync — the leader syncs the file outside
// the lock so followers can queue up and appends can proceed. Because the
// leader runs without the Ledger mutex, f is additionally protected by
// flushMu against compaction's swap: the leader copies f under flushMu
// while syncing is set, and swap/close wait for syncing to clear before
// replacing or closing the file, so a leader never fsyncs a closed fd.
type wal struct {
	f    *os.File
	path string
	dir  string
	size int64
	buf  []byte // scratch frame buffer, reused across appends

	appended atomic.Uint64 // seq of the last record written to the file

	flushMu   sync.Mutex
	flushCond *sync.Cond
	synced    uint64 // seq of the last record covered by a completed fsync
	syncErr   error  // first fsync failure; latches, fails all later acks
	syncing   bool   // a flush leader is currently syncing
	lastSync  time.Time

	// leaderSync is the flush leader's fsync, (*os.File).Sync outside
	// tests; the batching tests wrap it to hold a leader mid-flush.
	leaderSync func(*os.File) error
}

// openWAL opens (creating if needed) dir/wal.log for appending. size is
// the current byte length after recovery truncated any torn tail; lastSeq
// seeds both the appended and synced watermarks — everything already in
// the file predates this process, so it is treated as durable.
func openWAL(dir string, size int64, lastSeq uint64) (*wal, error) {
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("ledger: open wal: %w", err)
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: seek wal: %w", err)
	}
	w := &wal{f: f, path: path, dir: dir, size: size, leaderSync: (*os.File).Sync}
	w.flushCond = sync.NewCond(&w.flushMu)
	w.appended.Store(lastSeq)
	w.synced = lastSeq
	return w, nil
}

// append writes one framed record. Callers hold the Ledger mutex. The
// record is durable only after sync (SyncEveryRecord) or waitSynced.
func (w *wal) append(r Record) error {
	w.buf = EncodeRecord(w.buf[:0], r)
	n, err := w.f.Write(w.buf)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("ledger: append wal: %w", err)
	}
	w.appended.Store(r.Seq)
	return nil
}

// sync fsyncs the file immediately and advances the synced watermark.
// Callers hold the Ledger mutex (SyncEveryRecord path and compaction).
func (w *wal) sync() error {
	err := w.f.Sync()
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.lastSync = time.Now()
	if err != nil {
		if w.syncErr == nil {
			w.syncErr = err
		}
		w.flushCond.Broadcast()
		return fmt.Errorf("ledger: fsync wal: %w", err)
	}
	if seq := w.appended.Load(); seq > w.synced {
		w.synced = seq
	}
	w.flushCond.Broadcast()
	return nil
}

// waitSynced blocks until an fsync covering seq has completed (group
// commit). The caller must NOT hold the Ledger mutex. Returns the number
// of records the caller's flush covered when it acted as leader (for
// batch-size telemetry), or 0 when it rode along as a follower.
func (w *wal) waitSynced(seq uint64) (int64, error) {
	w.flushMu.Lock()
	for w.synced < seq && w.syncErr == nil {
		if w.syncing {
			// A leader is already flushing. Its fsync covers seq if the
			// record was written before it started; if not, the loop
			// comes round again and this waiter may lead the next one.
			w.flushCond.Wait()
			continue
		}
		// Become the flush leader and sync at once, outside the lock.
		// syncing=true keeps swap (compaction) and close from replacing
		// or closing the fd mid-fsync — both wait for it to clear — so f
		// cannot go stale. Records appended while this fsync runs are
		// past target; their waiters loop and one of them leads the next.
		w.syncing = true
		f := w.f
		w.flushMu.Unlock()
		target := w.appended.Load() // everything written before the fsync below
		err := w.leaderSync(f)
		w.flushMu.Lock()
		w.syncing = false
		w.lastSync = time.Now()
		var batch int64
		if err != nil {
			if w.syncErr == nil {
				w.syncErr = err
			}
		} else if target > w.synced {
			batch = int64(target - w.synced)
			w.synced = target
		}
		w.flushCond.Broadcast()
		if w.synced >= seq || w.syncErr != nil {
			serr := w.syncErr
			w.flushMu.Unlock()
			if serr != nil {
				return batch, fmt.Errorf("ledger: fsync wal: %w", serr)
			}
			return batch, nil
		}
	}
	err := w.syncErr
	w.flushMu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("ledger: fsync wal: %w", err)
	}
	return 0, nil
}

// syncedThrough reports the durable watermark and last fsync time.
func (w *wal) syncedThrough() (uint64, time.Time) {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	return w.synced, w.lastSync
}

// swap replaces the open file with the freshly compacted one. Callers hold
// the Ledger mutex and have already brought the old file fully synced, so
// no group-commit waiter still needs the old file durable — but a flush
// leader may be mid-fsync on it, so swap waits for syncing to clear before
// installing the new file (under flushMu, the lock leaders copy w.f under)
// and closing the old one. No new leader can slip in between: compaction's
// preceding sync satisfied every queued waiter, and the Ledger mutex held
// here keeps new records from being appended.
func (w *wal) swap(f *os.File, size int64) {
	w.flushMu.Lock()
	for w.syncing {
		w.flushCond.Wait()
	}
	old := w.f
	w.f = f
	w.flushMu.Unlock()
	w.size = size
	old.Close()
}

func (w *wal) close() error {
	w.flushMu.Lock()
	for w.syncing {
		w.flushCond.Wait()
	}
	w.syncing = true // exclusive fd ownership: no leader syncs a closing fd
	f := w.f
	w.flushMu.Unlock()

	err := f.Sync()
	cerr := f.Close()

	w.flushMu.Lock()
	w.lastSync = time.Now()
	if err != nil {
		if w.syncErr == nil {
			w.syncErr = err
		}
	} else {
		if seq := w.appended.Load(); seq > w.synced {
			w.synced = seq
		}
	}
	w.syncing = false
	w.flushCond.Broadcast()
	w.flushMu.Unlock()
	if err == nil {
		err = cerr
	}
	return err
}

// fsyncDir fsyncs a directory so renames within it are durable. Tests
// swap it out to exercise the post-rename failure path in compaction.
var fsyncDir = syncDir

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
