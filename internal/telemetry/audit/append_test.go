package audit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"unicode/utf8"

	"gupt/internal/allocguard"
)

// readHead reads HEAD and checks it is the fixed-width document: headSize
// bytes, '\n' last, JSON that names the tip.
func readHead(t *testing.T, dir string) head {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, headFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != headSize || b[headSize-1] != '\n' {
		t.Fatalf("HEAD is %d bytes ending %q, want %d ending '\\n'", len(b), b[len(b)-1:], headSize)
	}
	var h head
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatalf("HEAD does not parse: %v", err)
	}
	return h
}

// Every append overwrites the one HEAD inode: no temporary file, no
// rename, across segment rotations too.
func TestAppendUpdatesHeadInPlace(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1)
	first, err := os.Stat(filepath.Join(dir, headFile))
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 200; i++ {
		appendN(t, l, 1)
		st, err := os.Stat(filepath.Join(dir, headFile))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first, st) {
			t.Fatalf("append %d replaced HEAD's inode", i)
		}
		if _, err := os.Stat(filepath.Join(dir, headFile+".tmp")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("append %d left %s.tmp behind (stat: %v)", i, headFile, err)
		}
		if h := readHead(t, dir); h.Seq != uint64(i) || h.Hash != l.lastHash || h.File != l.fileName {
			t.Fatalf("after append %d HEAD = %+v, want seq %d hash %.8s file %s", i, h, i, l.lastHash, l.fileName)
		}
	}
	if segs, _ := segments(dir); len(segs) < 5 {
		t.Fatalf("200 appends at MaxBytes 4 KiB made segments %v; the test must cross rotations", segs)
	}
	if rep, err := Verify(dir); err != nil || rep.Records != 200 || rep.HeadLagged {
		t.Fatalf("verify: %+v, %v", rep, err)
	}
}

// Append marshals each record once and splices the digest into the hash
// input; the line must be exactly json.Marshal of the finished record, the
// encoding recordHash and Verify use.
func TestAppendLineIsMarshalOfRecord(t *testing.T) {
	full := Record{
		Time:                1700000000,
		Type:                TypeQuery,
		TraceID:             "0123456789abcdef0123456789abcdef",
		Dataset:             "census <&> \"quoted\" back\\slash",
		Tenant:              "tenant-ä",
		Outcome:             "degraded",
		EpsilonCharged:      0.125,
		EpsilonRefunded:     1e-9,
		Blocks:              52,
		LatencyBucketMillis: -1,
		Reason:              "queue_full",
		RetryAfterMillis:    250,
		UnsafeRaw:           true,
		Detail:              "<script>&amp;</script> \"q\" \\ naïve 東京    \x00\x1f\t",
	}
	recs := []Record{full, {Time: 2, Type: TypeBudgetThreshold}, {Time: 1, Type: TypeUnsafeTrace, UnsafeRaw: true, Detail: strings.Repeat("é", maxDetailLen)},
		// A cut at the cap's byte would split a rune: the record then
		// failed Verify as edited and Open refused the log.
		{Time: 3, Type: TypeUnsafeTrace, UnsafeRaw: true, Detail: "x" + strings.Repeat("é", maxDetailLen)}}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		var sb strings.Builder
		for j := rng.Intn(40); j > 0; j-- {
			sb.WriteRune(rune(rng.Intn(0x3000)))
		}
		rec := full
		rec.Detail = sb.String()
		rec.Dataset = string([]rune{rune(rng.Intn(0x3000)), '<', rune(rng.Intn(0x3000))})
		rec.EpsilonCharged = rng.Float64()
		recs = append(recs, rec)
	}

	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	prev := ""
	for i, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		rec.Seq, rec.Prev = uint64(i+1), prev
		for len(rec.Detail) > maxDetailLen || !utf8.ValidString(rec.Detail) {
			rec.Detail = rec.Detail[:len(rec.Detail)-1]
		}
		rec.Hash = recordHash(rec)
		if rec.Hash != l.lastHash {
			t.Fatalf("record %d: Append's hash %.16s, recordHash %.16s", i, l.lastHash, rec.Hash)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(b)
		want.WriteByte('\n')
		prev = rec.Hash
	}
	l.Close()
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for i := range wl {
			if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs from json.Marshal:\n got %q\nwant %q", i+1, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("segment has %d bytes, json.Marshal %d", len(got), want.Len())
	}
	if rep, err := Verify(dir); err != nil || rep.Records != uint64(len(recs)) {
		t.Fatalf("verify: %+v, %v", rep, err)
	}
}

// A HEAD written before heads were fixed-width (compact JSON and '\n') is
// left alone by Open and replaced once, by the first append.
func TestUnpaddedHeadIsUpgradedOnFirstAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5)
	l.Close()
	old, err := json.Marshal(head{Seq: 5, Hash: l.lastHash, File: segName(1)})
	if err != nil {
		t.Fatal(err)
	}
	old = append(old, '\n')
	path := filepath.Join(dir, headFile)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("unpadded head does not verify: %v", err)
	}

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); !bytes.Equal(b, old) {
		t.Fatalf("Open rewrote HEAD: %q", b)
	}
	appendN(t, l, 1)
	upgraded, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2)
	if st, err := os.Stat(path); err != nil || !os.SameFile(upgraded, st) {
		t.Fatalf("HEAD replaced again after the upgrade (stat: %v)", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if h := readHead(t, dir); h.Seq != 8 {
		t.Fatalf("HEAD = %+v, want seq 8", h)
	}
	if rep, err := Verify(dir); err != nil || rep.Records != 8 || rep.HeadLagged {
		t.Fatalf("verify after upgrade: %+v, %v", rep, err)
	}
}

// A segment write that fails after its bytes may have reached the file
// must not let a later record land behind them. Here the fragment is
// written through a second handle and the log's own handle is closed, so
// the cut back fails too: every later Append must refuse, and the
// fragment stays the torn tail that Verify tolerates and Open heals.
func TestFailedWriteFailsLaterAppendsClosed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	path := filepath.Join(dir, segName(1))
	frag, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := frag.WriteString(`{"seq":4,"time":17`); err != nil {
		t.Fatal(err)
	}
	frag.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close()

	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Type: TypeQuery}); err == nil {
			t.Fatalf("append %d after a failed write succeeded", i)
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatalf("segment changed after the failed write: %d bytes, was %d", len(after), len(before))
	}
	l.Close()

	rep, err := Verify(dir)
	if err != nil || rep.Records != 3 || !rep.TornTail {
		t.Fatalf("verify after failed write: %+v, %v", rep, err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !l.RecoveredTornTail {
		t.Fatal("reopen did not cut the torn fragment")
	}
	appendN(t, l, 1)
	l.Close()
	if rep, err := Verify(dir); err != nil || rep.Records != 4 || rep.TornTail || rep.HeadLagged {
		t.Fatalf("verify after reopen: %+v, %v", rep, err)
	}
}

const envFsizeChild = "AUDIT_FSIZE_CHILD"

// runPartialWriteChild appends under a file-size limit that lets the
// kernel take only part of a record: a genuine short write followed by
// EFBIG, as a filling disk produces.
func runPartialWriteChild() error {
	l, err := Open(os.Getenv(envDir), Options{})
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Type: TypeQuery, Dataset: "fsize", Outcome: "ok"}); err != nil {
			return err
		}
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		return err
	}
	size := l.size
	short := lim
	short.Cur = uint64(size) + 40
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &short); err != nil {
		return err
	}
	err = l.Append(Record{Type: TypeQuery, Dataset: "fsize", Outcome: "ok", Detail: strings.Repeat("d", 200)})
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		return err
	}
	if !errors.Is(err, syscall.EFBIG) {
		return fmt.Errorf("append past the file-size limit returned %v, want EFBIG", err)
	}
	st, serr := os.Stat(filepath.Join(l.dir, l.fileName))
	if serr != nil {
		return serr
	}
	if st.Size() != size {
		return fmt.Errorf("segment is %d bytes after the failed append, want %d", st.Size(), size)
	}
	if err := l.Append(Record{Type: TypeQuery, Dataset: "fsize", Outcome: "ok"}); err != nil {
		return fmt.Errorf("append after the cut: %v", err)
	}
	return l.Close()
}

// A short write is cut back to the last record, and the log goes on
// appending with no gap or fragment in the chain.
func TestPartialWriteIsCutBack(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), envFsizeChild+"=1", envDir+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	rep, err := Verify(dir)
	if err != nil || rep.Records != 4 || rep.TornTail || rep.HeadLagged {
		t.Fatalf("verify after a cut short write: %+v, %v", rep, err)
	}
}

// Append's steady state is two allocations: the record boxed for the
// encoder and the digest string. The line and HEAD are filled in reused
// buffers. Marshaling twice and replacing HEAD through a temporary file
// and a rename cost 17 allocations and 2,040 bytes.
func TestAppendAllocations(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := Record{
		Type:                TypeQuery,
		TraceID:             "0123456789abcdef0123456789abcdef",
		Dataset:             "census",
		Outcome:             "ok",
		EpsilonCharged:      0.1,
		Blocks:              20,
		LatencyBucketMillis: 50,
	}
	run := func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	allocguard.SkipUnderRace(t, "the race detector's instrumentation allocates")
	run()
	// Measured 2 allocations and 272 bytes; the bounds are that + 20 %.
	const allocBound, byteBound = 2, 326
	if allocs := testing.AllocsPerRun(200, run); allocs > allocBound {
		t.Errorf("Append allocates %v times, want <= %d", allocs, allocBound)
	}
	if bytes := allocguard.Bytes(run); bytes > byteBound {
		t.Errorf("Append allocates %d bytes, want <= %d", bytes, byteBound)
	}
}
