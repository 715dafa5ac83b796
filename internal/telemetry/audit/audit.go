// Package audit implements guptd's tamper-evident audit log: an
// append-only, size-rotated JSONL stream of query-lifecycle events in
// which every record carries the SHA-256 hash of its predecessor. Editing
// a byte, removing a record, or truncating the tail breaks the chain (or
// contradicts the head sidecar) in a way `gupt-cli audit verify` detects.
// The head sidecar is a fixed-width file the log keeps open and overwrites
// in place after every record: one write, no temporary file, no rename.
//
// The log records platform events only: dataset names, epsilon charged and
// refunded, block counts, outcomes, trace ids and BUCKETED latencies.
// Query outputs and raw durations never appear — with one explicit,
// opt-in exception: when the operator enables unsafe traces (guptd
// -unsafe-trace-log), each settled query's raw-duration trace line is
// written here, and only here, as a record with Type "unsafe_trace" and
// UnsafeRaw set, so their presence is itself on the audit record (see SECURITY.md on the §6.3 timing side channel).
//
// Threat model: the chain makes the log tamper-EVIDENT, not tamper-proof.
// An attacker with write access to the directory can rewrite the whole
// chain and the head sidecar consistently; detecting that requires
// mirroring the head (seq + hash) off the box, which the small size of the
// head file is designed to make cheap.
package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Record types.
const (
	// TypeQuery is one settled query: admission through release (or the
	// failure that ended it).
	TypeQuery = "query"
	// TypeUnsafeTrace is one settled query's raw-duration trace line,
	// written when the operator opted in to unsafe traces; the audit chain
	// is that line's only sink. Records of this type always have UnsafeRaw
	// true; their Detail carries the §6.3-sensitive payload.
	TypeUnsafeTrace = "unsafe_trace"
	// TypeBudgetThreshold is a burn-down threshold crossing: a tenant's or
	// dataset's remaining ε dropped below a fraction of its total for the
	// first time. Detail carries the fraction; the ε fields carry the
	// remaining/total pair.
	TypeBudgetThreshold = "budget_threshold"
)

// Crash points for fault-injection tests (same idiom as the ledger).
const (
	CrashAfterAppend = "after-append" // record written, head sidecar not yet updated
	CrashAfterHead   = "after-head"   // head sidecar updated
)

// Record is one audit event. Prev and Hash implement the chain: Hash is
// the SHA-256 of the record's canonical JSON with Hash itself empty, and
// Prev is the predecessor's Hash ("" for the first record).
type Record struct {
	Seq uint64 `json:"seq"`
	// Time is the event time in whole unix seconds — deliberately coarse;
	// the audit log must not become a precision timing side channel.
	Time int64  `json:"time"`
	Type string `json:"type"`

	TraceID string `json:"traceId,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	// Tenant is the authenticated principal the event ran as; empty in
	// single-tenant deployments. Tenant ids only — never key material.
	Tenant string `json:"tenant,omitempty"`
	// Outcome is the query's terminal state: ok, degraded, error, aborted,
	// budget_refused, or cache_hit (an already-released answer re-served at
	// zero ε).
	Outcome string `json:"outcome,omitempty"`
	// EpsilonCharged / EpsilonRefunded are the privacy-budget movements the
	// query settled with (§6.2: aborts keep their charge).
	EpsilonCharged  float64 `json:"epsilonCharged,omitempty"`
	EpsilonRefunded float64 `json:"epsilonRefunded,omitempty"`
	Blocks          int     `json:"blocks,omitempty"`
	// LatencyBucketMillis is the query's latency bucket upper bound; -1
	// means beyond the coarsest bucket. Never a raw duration.
	LatencyBucketMillis float64 `json:"latencyBucketMillis,omitempty"`
	// Reason classifies refusals ("queue_full", "deadline_unmeetable",
	// "rate_limited") and budget-threshold crossings; empty elsewhere.
	Reason string `json:"reason,omitempty"`
	// RetryAfterMillis is the retry hint the refusal carried back to the
	// client — a scheduler estimate, not a measured duration.
	RetryAfterMillis int64 `json:"retryAfterMillis,omitempty"`
	// UnsafeRaw marks records whose Detail carries raw timing data from the
	// opt-in unsafe trace sink.
	UnsafeRaw bool   `json:"unsafe_raw,omitempty"`
	Detail    string `json:"detail,omitempty"`

	Prev string `json:"prev"`
	Hash string `json:"hash"`
}

// head is the sidecar: the chain tip after the most recent append. Verify
// uses it to detect tail truncation, which the intra-record chain alone
// cannot see. On disk it is this struct's JSON padded with spaces to
// headSize bytes, the last one '\n', and every append overwrites it in
// place with one write at offset 0. A write that small cannot be torn by
// SIGKILL (the kernel checks for fatal signals only between page-sized
// chunks), so a killed process leaves the old tip or the new one, as a
// rename did. A HEAD of any other size is one written before the padding
// (or missing); the first append of a process replaces it through a
// temporary file and a rename, once.
type head struct {
	Seq  uint64 `json:"seq"`
	Hash string `json:"hash"`
	File string `json:"file"`
}

const (
	headFile   = "HEAD"
	headSize   = 256
	filePrefix = "audit-"
	fileSuffix = ".log"
	// maxDetailLen bounds the Detail field (unsafe trace strings are
	// already bounded by the remote-span cap, but the log enforces its own
	// ceiling).
	maxDetailLen = 8 << 10
)

// DefaultMaxBytes is the rotation threshold when Options.MaxBytes is zero.
const DefaultMaxBytes = 4 << 20

// Options configures Open.
type Options struct {
	// MaxBytes rotates the current segment when an append would push it
	// past this size. Zero means DefaultMaxBytes.
	MaxBytes int64
	// Fsync syncs the segment after every append (before the head sidecar
	// is overwritten, so the head never refers to a record the disk might
	// not have). The head itself is not synced. Off by default: the audit
	// log is tamper-evidence, not the budget ledger, and a crash losing the
	// last instants of audit is recorded as a lagging head, not silent
	// corruption.
	Fsync bool
	// CrashPoint, when set, is invoked at named durability boundaries —
	// fault-injection hook for the SIGKILL tests.
	CrashPoint func(point string)
}

// Log is the append handle. A nil *Log is a valid disabled log: Append
// and Close are no-ops.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	fileName string // base name of the current segment
	fileIdx  int
	size     int64
	lastSeq  uint64
	lastHash string
	closed   bool
	// err, once set, fails every later Append: a segment write failed and
	// its partial bytes could not be cut away, so they must stay the tail.
	err error

	line     bytes.Buffer  // the record being appended, reused
	enc      *json.Encoder // encodes into line
	headF    *os.File      // HEAD, opened by the first writeHead
	headTail []byte        // `","file":"<segment>"}`, set with fileName
	headBuf  [headSize]byte

	// RecoveredTornTail reports that Open truncated a partial final line
	// (expected after a crash mid-append).
	RecoveredTornTail bool
}

// Open opens (or creates) the audit log in dir and positions it at the
// chain tip. A partial final line — the signature of a crash mid-append —
// is truncated away; any earlier malformed record refuses to open, because
// appending onto a corrupt chain would destroy the evidence Verify needs.
func Open(dir string, opts Options) (*Log, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	l := &Log{dir: dir, opts: opts, fileIdx: 1}
	l.enc = json.NewEncoder(&l.line)

	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		l.fileIdx = segIndex(last)
		torn, err := l.recoverTip(filepath.Join(dir, last))
		if err != nil {
			return nil, err
		}
		l.RecoveredTornTail = torn
		// The tip may live in an earlier segment when the newest one is
		// empty (crash between rotation and first append).
		if l.lastSeq == 0 && len(segs) > 1 {
			for i := len(segs) - 2; i >= 0 && l.lastSeq == 0; i-- {
				if _, err := l.recoverTip(filepath.Join(dir, segs[i])); err != nil {
					return nil, err
				}
			}
		}
		l.setSegment(last)
	} else {
		l.setSegment(segName(l.fileIdx))
	}

	path := filepath.Join(dir, l.fileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("audit: %w", err)
	}
	l.f, l.size = f, st.Size()
	return l, nil
}

// recoverTip scans one segment for the last intact record, truncating a
// torn final line. It updates lastSeq/lastHash when the segment has any
// intact record and reports whether a torn tail was cut.
func (l *Log) recoverTip(path string) (torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("audit: %w", err)
	}
	valid := int64(0) // byte offset past the last intact record
	rest := data
	for len(rest) > 0 {
		nl := -1
		for i, b := range rest {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			// Unterminated final fragment: torn append.
			break
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		var rec Record
		if err := decodeStrict(line, &rec); err != nil || recordHash(rec) != rec.Hash {
			// A malformed or hash-broken line mid-file is not a crash
			// artifact — refuse rather than append over evidence. Only an
			// unterminated fragment is crash-shaped, handled above.
			return false, fmt.Errorf("audit: %s: corrupt record after seq %d — run `gupt-cli audit verify` (refusing to append onto a broken chain)", filepath.Base(path), l.lastSeq)
		}
		l.lastSeq, l.lastHash = rec.Seq, rec.Hash
		valid += int64(nl + 1)
	}
	if valid < int64(len(data)) {
		if err := os.Truncate(path, valid); err != nil {
			return false, fmt.Errorf("audit: truncating torn tail: %w", err)
		}
		return true, nil
	}
	return false, nil
}

// Append completes rec (Seq, Time if unset, Prev, Hash) and writes it.
// Safe for concurrent use; a nil log discards the record.
func (l *Log) Append(rec Record) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("audit: log closed")
	}
	if l.err != nil {
		return l.err
	}
	if len(rec.Detail) > maxDetailLen {
		// Cut at a rune boundary. A split rune is invalid UTF-8, which
		// json.Marshal writes as \ufffd; that decodes to a valid U+FFFD
		// that marshals raw, so the record would fail Verify as edited.
		cut := maxDetailLen
		for cut > 0 && !utf8.RuneStart(rec.Detail[cut]) {
			cut--
		}
		rec.Detail = rec.Detail[:cut]
	}
	rec.Seq = l.lastSeq + 1
	if rec.Time == 0 {
		rec.Time = time.Now().Unix()
	}
	rec.Prev = l.lastHash
	rec.Hash = ""

	// The record is marshaled once. Hash is Record's last field and is not
	// omitempty, so the encoding ends in `"hash":""}` + '\n': without the
	// newline it is recordHash's input, and splicing the digest between
	// the two quotes gives json.Marshal of the finished record.
	l.line.Reset()
	if err := l.enc.Encode(rec); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	sum := sha256.Sum256(l.line.Bytes()[:l.line.Len()-1])
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	l.line.Truncate(l.line.Len() - len("\"}\n"))
	l.line.Write(digest[:])
	l.line.WriteString("\"}\n")
	line := l.line.Bytes()

	if l.size > 0 && l.size+int64(len(line)) > l.opts.MaxBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(line); err != nil {
		return l.cutFailedWrite(err)
	}
	if l.opts.Fsync {
		if err := l.f.Sync(); err != nil {
			return l.cutFailedWrite(err)
		}
	}
	l.size += int64(len(line))
	l.lastSeq, l.lastHash = rec.Seq, string(digest[:])
	l.crash(CrashAfterAppend)
	if err := l.writeHead(); err != nil {
		return err
	}
	l.crash(CrashAfterHead)
	return nil
}

// rotate closes the current segment and starts the next one.
func (l *Log) rotate() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	l.fileIdx++
	l.setSegment(segName(l.fileIdx))
	f, err := os.OpenFile(filepath.Join(l.dir, l.fileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	l.f, l.size = f, 0
	return nil
}

// cutFailedWrite handles a segment write or sync that failed after the
// record may have reached the file in part or whole. It cuts the segment
// back to the last appended record, so the next record cannot land after
// the fragment; if the cut fails too, the fragment must stay the tail,
// which Open heals, and every later Append fails.
func (l *Log) cutFailedWrite(werr error) error {
	if err := l.f.Truncate(l.size); err != nil {
		l.err = fmt.Errorf("audit: appending stopped: a failed write could not be cut back (%v); reopen the log: %w", err, werr)
		return l.err
	}
	return fmt.Errorf("audit: %w", werr)
}

// setSegment makes name the current segment and caches the end of the
// head document that names it.
func (l *Log) setSegment(name string) {
	quoted, _ := json.Marshal(name) // a string cannot fail to marshal
	l.fileName = name
	l.headTail = append(append([]byte(`","file":`), quoted...), '}')
}

// writeHead overwrites the head sidecar with the current tip: one write of
// headSize bytes at offset 0 (see head).
func (l *Log) writeHead() error {
	b := append(l.headBuf[:0], `{"seq":`...)
	b = strconv.AppendUint(b, l.lastSeq, 10)
	b = append(b, `,"hash":"`...)
	b = append(b, l.lastHash...)
	b = append(b, l.headTail...)
	if len(b) >= headSize {
		return fmt.Errorf("audit: head naming segment %q exceeds %d bytes", l.fileName, headSize)
	}
	n := len(b)
	b = b[:headSize]
	for i := n; i < headSize-1; i++ {
		b[i] = ' '
	}
	b[headSize-1] = '\n'
	if l.headF == nil {
		if err := l.openHead(b); err != nil {
			return err
		}
	}
	if _, err := l.headF.WriteAt(b, 0); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}

// openHead opens HEAD for in-place writes. A HEAD that is missing or not
// headSize bytes is first replaced whole with b through a temporary file
// and a rename.
func (l *Log) openHead(b []byte) error {
	path := filepath.Join(l.dir, headFile)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	switch {
	case err == nil:
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("audit: %w", err)
		}
		if st.Size() == headSize {
			l.headF = f
			return nil
		}
		f.Close()
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("audit: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if l.headF, err = os.OpenFile(path, os.O_WRONLY, 0); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}

// LastSeq returns the sequence number of the most recent record (0 when
// empty). Nil-safe.
func (l *Log) LastSeq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Close flushes and closes the log. Nil-safe, idempotent.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.opts.Fsync {
		err = l.f.Sync()
	}
	err = errors.Join(err, l.f.Close())
	if l.headF != nil {
		err = errors.Join(err, l.headF.Close())
	}
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}

func (l *Log) crash(point string) {
	if l.opts.CrashPoint != nil {
		l.opts.CrashPoint(point)
	}
}

// recordHash is the chain hash: SHA-256 over the record's canonical JSON
// with the Hash field empty. Canonical means Go's deterministic
// struct-field marshal order; Verify re-derives it the same way and
// rejects unknown fields, so no byte of a record can change its meaning
// without changing the hash or failing to decode.
func recordHash(rec Record) string {
	rec.Hash = ""
	b, err := json.Marshal(rec)
	if err != nil {
		// A Record of plain scalars cannot fail to marshal.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// decodeStrict unmarshals one record line, rejecting unknown fields —
// without this, a tamperer could splice extra JSON fields into a line that
// re-marshaling would silently drop, leaving the hash intact.
func decodeStrict(line []byte, rec *Record) error {
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(rec); err != nil {
		return err
	}
	// Trailing garbage after the JSON object is tampering too.
	if dec.More() {
		return fmt.Errorf("trailing data after record")
	}
	return nil
}

// segments lists the log's segment files in chain order.
func segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, filePrefix) && strings.HasSuffix(name, fileSuffix) {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func segName(idx int) string { return fmt.Sprintf("%s%06d%s", filePrefix, idx, fileSuffix) }

func segIndex(name string) int {
	var idx int
	fmt.Sscanf(name, filePrefix+"%06d"+fileSuffix, &idx)
	if idx < 1 {
		idx = 1
	}
	return idx
}
