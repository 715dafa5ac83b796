package ledger

import (
	"bytes"
	"errors"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gupt/internal/dp"
)

// Empty directory: recovery yields a clean slate, and Open works on a
// directory that does not exist yet.
func TestRecoverEmptyDir(t *testing.T) {
	dir := t.TempDir()
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Datasets) != 0 || rec.LastSeq != 0 || rec.TornTail {
		t.Fatalf("empty dir recovered %+v, want clean slate", rec)
	}

	l, err := Open(filepath.Join(dir, "does", "not", "exist"), Options{})
	if err != nil {
		t.Fatalf("Open on a missing dir: %v", err)
	}
	l.Close()
}

// Zero-length log file: same as no log.
func TestRecoverZeroLengthLog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Datasets) != 0 || rec.WALRecords != 0 || rec.TornTail {
		t.Fatalf("zero-length log recovered %+v, want clean slate", rec)
	}
}

// Snapshot-only directory (WAL deleted, e.g. by an operator clearing a
// corrupt tail): the snapshot alone restores the totals.
func TestRecoverSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	b, _ := l.Bind("ds", dp.NewAccountant(10))
	if err := b.SpendAs("", "q", 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Remove(filepath.Join(dir, walName)); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Datasets["ds"].Spent; got != 3 {
		t.Fatalf("snapshot-only recovery spent = %v, want 3", got)
	}
	// And the ledger must reopen and append from there.
	l2 := openTest(t, dir, Options{})
	acct := dp.NewAccountant(10)
	b2, err := l2.Bind("ds", acct)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.SpendAs("", "q2", 1); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	rec2, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec2.Datasets["ds"].Spent; got != 4 {
		t.Fatalf("post-reopen spent = %v, want 4", got)
	}
}

// A torn final record (the crash cut the write short) is truncated with a
// warning; the records before it survive.
func TestRecoverTornTail(t *testing.T) {
	for _, cut := range []int{1, 5, frameHeaderLen, frameHeaderLen + 3} {
		dir := t.TempDir()
		l := openTest(t, dir, Options{})
		b, _ := l.Bind("ds", dp.NewAccountant(10))
		if err := b.SpendAs("", "q", 2); err != nil {
			t.Fatal(err)
		}
		l.Close()

		// Append a torn record: a valid frame with its tail cut off.
		frame := EncodeRecord(nil, Record{Type: RecordCharge, Seq: 99, Dataset: "ds", Label: "torn", Epsilon: 5})
		if cut > len(frame) {
			cut = len(frame) - 1
		}
		path := filepath.Join(dir, walName)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(frame[:cut]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		before, _ := os.Stat(path)

		var buf bytes.Buffer
		rec, err := Recover(dir, log.New(&buf, "", 0))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !rec.TornTail {
			t.Fatalf("cut=%d: TornTail not reported", cut)
		}
		if got := rec.Datasets["ds"].Spent; got != 2 {
			t.Fatalf("cut=%d: spent = %v, want 2 (torn record must not count)", cut, got)
		}
		if !strings.Contains(buf.String(), "truncating torn record") {
			t.Errorf("cut=%d: no warning logged, got %q", cut, buf.String())
		}
		after, _ := os.Stat(path)
		if after.Size() != before.Size()-int64(cut) {
			t.Errorf("cut=%d: file not truncated: %d -> %d", cut, before.Size(), after.Size())
		}
		// Reopen and append over the clean boundary.
		l2 := openTest(t, dir, Options{})
		b2, _ := l2.Bind("ds", dp.NewAccountant(10))
		if err := b2.SpendAs("", "q2", 1); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		rec2, err := Recover(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec2.Datasets["ds"].Spent; got != 3 {
			t.Fatalf("cut=%d: post-truncation spent = %v, want 3", cut, got)
		}
	}
}

// A CRC-corrupt record in the interior of the log is real corruption and
// must fail recovery, not be skipped (skipping could under-count).
func TestRecoverCorruptInterior(t *testing.T) {
	dir := t.TempDir()
	// Build the log by hand so the corrupted byte provably lands inside
	// the middle record's *payload* (a corrupted length header instead
	// shifts framing and is indistinguishable from a torn tail, which is
	// handled — and tested — separately).
	var buf []byte
	buf = EncodeRecord(buf, Record{Type: RecordRegister, Seq: 1, Dataset: "ds", Total: 10})
	mid := len(buf)
	buf = EncodeRecord(buf, Record{Type: RecordCharge, Seq: 2, Dataset: "ds", Label: "q", Epsilon: 1})
	buf = EncodeRecord(buf, Record{Type: RecordCharge, Seq: 3, Dataset: "ds", Label: "q", Epsilon: 1})
	buf[mid+frameHeaderLen+2] ^= 0xff // inside record 2's payload
	path := filepath.Join(dir, walName)
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, nil); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption: err = %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open must refuse a ledger with interior corruption")
	}
}

// A replayed total exceeding the dataset's registered budget clamps the
// accountant to exhausted instead of failing the boot.
func TestRecoverOverBudgetClampsToExhausted(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	b, _ := l.Bind("ds", dp.NewAccountant(100))
	for i := 0; i < 8; i++ {
		if err := b.SpendAs("", "q", 10); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// The owner lowered the budget to 50 < the 80 already spent.
	l2 := openTest(t, dir, Options{})
	acct := dp.NewAccountant(50)
	b2, err := l2.Bind("ds", acct)
	if err != nil {
		t.Fatalf("over-budget replay must not error out of boot: %v", err)
	}
	if got := acct.Remaining(); got != 0 {
		t.Fatalf("remaining = %v, want 0 (clamped to exhausted)", got)
	}
	if err := b2.SpendAs("", "q", 1); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("Spend on clamped dataset err = %v, want ErrBudgetExhausted", err)
	}
	// The ledger still remembers the true (higher) spend.
	if got := l2.Spent("ds"); got != 80 {
		t.Fatalf("ledger spent = %v, want 80", got)
	}
}

// An orphan refund (naming a charge the replay never saw) is ignored:
// replay stays monotone in the over-count direction.
func TestRecoverOrphanRefundIgnored(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = EncodeRecord(buf, Record{Type: RecordRegister, Seq: 1, Dataset: "ds", Total: 10})
	buf = EncodeRecord(buf, Record{Type: RecordCharge, Seq: 2, Dataset: "ds", Label: "q", Epsilon: 3})
	buf = EncodeRecord(buf, Record{Type: RecordRefund, Seq: 3, Dataset: "ds", ChargeSeq: 77, Epsilon: 3})
	if err := os.WriteFile(filepath.Join(dir, walName), buf, 0o600); err != nil {
		t.Fatal(err)
	}
	var logbuf bytes.Buffer
	rec, err := Recover(dir, log.New(&logbuf, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Datasets["ds"].Spent; got != 3 {
		t.Fatalf("spent = %v, want 3 (orphan refund must not subtract)", got)
	}
	if !strings.Contains(logbuf.String(), "orphan refund") {
		t.Errorf("no orphan-refund warning, got %q", logbuf.String())
	}
}

// Bind replays the recovered spend in full. An accountant that was
// already charged keeps that charge on top: an over-count, the safe
// direction, never an under-count.
func TestBindAfterPreCharge(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	b, _ := l.Bind("ds", dp.NewAccountant(10))
	if err := b.SpendAs("", "q", 4); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := openTest(t, dir, Options{})
	acct := dp.NewAccountant(10)
	if err := acct.Spend("pre-charge", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Bind("ds", acct); err != nil {
		t.Fatal(err)
	}
	if got := acct.Spent(); got != 8 {
		t.Fatalf("spent = %v, want 8 (recovered 4 replayed in full on top of the pre-charge)", got)
	}
}

// A CRC-valid record with bad grammar (here: an unknown type from a
// hypothetical newer version) cannot be a torn write — a cut-short write
// cannot forge a checksum — so recovery must fail even when it is the
// final record, rather than truncate away something real.
func TestRecoverGrammarCorruptAtEOFFails(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = EncodeRecord(buf, Record{Type: RecordRegister, Seq: 1, Dataset: "ds", Total: 10})
	buf = EncodeRecord(buf, Record{Type: RecordType(99), Seq: 2})
	path := filepath.Join(dir, walName)
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, nil); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery err = %v, want ErrCorrupt (CRC-valid grammar corruption must not be truncated)", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(buf)) {
		t.Fatalf("recovery modified the file: %d bytes, want %d (err %v)", fi.Size(), len(buf), err)
	}
}

// An all-zero tail — the file-size update survived the crash, the data
// blocks did not — is a torn write: truncated with a warning, with the
// records before it intact. Exercises tails shorter than a frame header,
// exactly one zero header (whose empty payload trivially passes CRC), and
// a longer zero run.
func TestRecoverZeroFilledTail(t *testing.T) {
	for _, pad := range []int{3, frameHeaderLen, 40} {
		dir := t.TempDir()
		var buf []byte
		buf = EncodeRecord(buf, Record{Type: RecordRegister, Seq: 1, Dataset: "ds", Total: 10})
		buf = EncodeRecord(buf, Record{Type: RecordCharge, Seq: 2, Dataset: "ds", Label: "q", Epsilon: 2})
		keep := len(buf)
		buf = append(buf, make([]byte, pad)...)
		path := filepath.Join(dir, walName)
		if err := os.WriteFile(path, buf, 0o600); err != nil {
			t.Fatal(err)
		}
		var logbuf bytes.Buffer
		rec, err := Recover(dir, log.New(&logbuf, "", 0))
		if err != nil {
			t.Fatalf("pad=%d: %v", pad, err)
		}
		if !rec.TornTail {
			t.Fatalf("pad=%d: zero tail not reported as torn", pad)
		}
		if got := rec.Datasets["ds"].Spent; got != 2 {
			t.Fatalf("pad=%d: spent = %v, want 2", pad, got)
		}
		if fi, _ := os.Stat(path); fi.Size() != int64(keep) {
			t.Fatalf("pad=%d: file size %d, want %d (zero tail truncated)", pad, fi.Size(), keep)
		}
	}
}
