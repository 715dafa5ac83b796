package ledger

import (
	"encoding/binary"
	"flag"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gupt/internal/dp"
)

// updatePreTenancy regenerates the checked-in pre-tenancy WAL fixture:
//
//	go test ./internal/ledger -run TestPreTenancyWALStillRecovers -update-pre-tenancy
//
// The fixture encodes records in the PRE-PR8 payload grammar (no tenant
// tail) and must never be regenerated with the current encoder — its whole
// point is to pin the migration path.
var updatePreTenancy = flag.Bool("update-pre-tenancy", false, "rewrite testdata/pre_tenancy_wal.log")

func TestTenantAttributionRoundTrip(t *testing.T) {
	for _, r := range []Record{
		{Type: RecordCharge, Seq: 7, At: 99, Dataset: "ds", Label: "q", Epsilon: 0.25, Tenant: "alice"},
		{Type: RecordRefund, Seq: 8, At: 100, Dataset: "ds", ChargeSeq: 7, Epsilon: 0.25, Tenant: "alice"},
		{Type: RecordCacheHit, Seq: 9, At: 101, Dataset: "ds", Label: "q", Tenant: "bob"},
		{Type: RecordCharge, Seq: 10, At: 102, Dataset: "ds", Label: "q", Epsilon: 0.1}, // default principal
	} {
		frame := EncodeRecord(nil, r)
		got, n, err := DecodeRecord(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("decode %v: n=%d err=%v", r, n, err)
		}
		if got != r {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
	}
}

// liveTenantSpent copies the open ledger's per-tenant settled ε for a
// dataset (tenant id → ε; the default principal "" is never a key).
func liveTenantSpent(l *Ledger, name string) map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]float64{}
	if st, ok := l.state[name]; ok {
		for tid, eps := range st.tenantSpent {
			out[tid] = eps
		}
	}
	return out
}

func TestTenantBalancesRecoverAndSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Bind("ds", dp.NewAccountant(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SpendAs("alice", "q1", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.SpendAs("bob", "q2", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := b.SpendAs("", "q3", 0.125); err != nil { // default principal
		t.Fatal(err)
	}
	if err := b.RecordCacheHitAs("alice", "q1"); err != nil {
		t.Fatal(err)
	}
	byTenant := liveTenantSpent(l, "ds")
	if byTenant["alice"] != 0.5 || byTenant["bob"] != 0.25 {
		t.Fatalf("live tenantSpent = %v", byTenant)
	}
	if _, ok := byTenant[""]; ok {
		t.Fatal("default principal leaked into the tenant map")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	ds := rec.Datasets["ds"]
	if ds.TenantSpent["alice"] != 0.5 || ds.TenantSpent["bob"] != 0.25 {
		t.Fatalf("recovered TenantSpent = %v", ds.TenantSpent)
	}
	if ds.Spent != 0.875 {
		t.Fatalf("recovered Spent = %v, want 0.875", ds.Spent)
	}

	// Compaction must carry the balances through the snapshot.
	l2, err := Open(dir, Options{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Recover(dir, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	ds2 := rec2.Datasets["ds"]
	if ds2.TenantSpent["alice"] != 0.5 || ds2.TenantSpent["bob"] != 0.25 || ds2.Spent != 0.875 {
		t.Fatalf("post-compaction recovery = %+v", ds2)
	}
	if rec2.WALRecords != 1 { // only the snapshot marker remains
		t.Fatalf("WALRecords after compaction = %d, want 1", rec2.WALRecords)
	}
}

func TestTenantRefundOnRefusalCancelsAttribution(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b, err := l.Bind("ds", dp.NewAccountant(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SpendAs("alice", "q1", 0.25); err != nil {
		t.Fatal(err)
	}
	// Refused by the global accountant: the provisional charge's refund
	// must cancel alice's attribution too.
	if err := b.SpendAs("alice", "q2", 0.25); err == nil {
		t.Fatal("over-budget charge accepted")
	}
	if got := liveTenantSpent(l, "ds")["alice"]; got != 0.25 {
		t.Fatalf("alice after refused charge = %v, want 0.25", got)
	}
}

// encodeLegacyRecord frames a record in the pre-PR8 grammar: charge,
// refund, and cache-hit payloads END at their last pre-tenancy field (no
// tenant tail). This is a frozen copy of the old encoder, used only to
// build and pin the migration fixture.
func encodeLegacyRecord(dst []byte, r Record) []byte {
	payload := []byte{byte(r.Type)}
	payload = binary.LittleEndian.AppendUint64(payload, r.Seq)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(r.At))
	str := func(s string) {
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(s)))
		payload = append(payload, s...)
	}
	switch r.Type {
	case RecordCharge:
		str(r.Dataset)
		str(r.Label)
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(r.Epsilon))
	case RecordRefund:
		str(r.Dataset)
		payload = binary.LittleEndian.AppendUint64(payload, r.ChargeSeq)
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(r.Epsilon))
	case RecordRegister:
		str(r.Dataset)
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(r.Total))
	case RecordCacheHit:
		str(r.Dataset)
		str(r.Label)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

const preTenancyFixture = "testdata/pre_tenancy_wal.log"

// preTenancyRecords is the exact history the fixture encodes: a register,
// a settled charge, a refused charge with its refund, and a cache hit.
// Expected replay: Total 1.0, Spent 0.25, Charges 1, CacheHits 1, no
// tenant attribution.
func preTenancyRecords() []Record {
	return []Record{
		{Type: RecordRegister, Seq: 1, At: 1000, Dataset: "census", Total: 1.0},
		{Type: RecordCharge, Seq: 2, At: 1001, Dataset: "census", Label: "q1", Epsilon: 0.25},
		{Type: RecordCharge, Seq: 3, At: 1002, Dataset: "census", Label: "q2", Epsilon: 0.5},
		{Type: RecordRefund, Seq: 4, At: 1003, Dataset: "census", ChargeSeq: 3, Epsilon: 0.5},
		{Type: RecordCacheHit, Seq: 5, At: 1004, Dataset: "census", Label: "q1"},
	}
}

// TestPreTenancyWALStillRecovers pins migration compatibility: a WAL
// written before the tenant column existed (checked-in binary fixture)
// must recover byte-for-byte identically under the tenant-aware decoder —
// same balances, empty tenant attribution — and the directory must then
// accept tenant-attributed charges without rewriting history.
func TestPreTenancyWALStillRecovers(t *testing.T) {
	if *updatePreTenancy {
		var buf []byte
		for _, r := range preTenancyRecords() {
			buf = encodeLegacyRecord(buf, r)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(preTenancyFixture, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixture, err := os.ReadFile(preTenancyFixture)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update-pre-tenancy): %v", err)
	}

	// Belt and braces: the checked-in bytes must still be what the frozen
	// legacy encoder produces, so nobody "refreshes" them with the new
	// grammar by accident.
	var want []byte
	for _, r := range preTenancyRecords() {
		want = encodeLegacyRecord(want, r)
	}
	if string(fixture) != string(want) {
		t.Fatal("fixture bytes drifted from the frozen legacy encoding")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), fixture, 0o600); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, testLogger(t))
	if err != nil {
		t.Fatalf("pre-tenancy WAL failed recovery: %v", err)
	}
	ds, ok := rec.Datasets["census"]
	if !ok {
		t.Fatal("dataset census not recovered")
	}
	if ds.Total != 1.0 || ds.Spent != 0.25 || ds.Charges != 1 || ds.CacheHits != 1 {
		t.Fatalf("recovered %+v, want Total 1.0 Spent 0.25 Charges 1 CacheHits 1", ds)
	}
	if len(ds.TenantSpent) != 0 {
		t.Fatalf("pre-tenancy records attributed to tenants: %v", ds.TenantSpent)
	}

	// The migrated directory keeps working with tenant-attributed charges
	// appended after the legacy prefix.
	l, err := Open(dir, Options{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Bind("census", dp.NewAccountant(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SpendAs("alice", "post-migration", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Recover(dir, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	ds2 := rec2.Datasets["census"]
	if ds2.Spent != 0.5 || ds2.TenantSpent["alice"] != 0.25 {
		t.Fatalf("mixed-era replay = Spent %v TenantSpent %v", ds2.Spent, ds2.TenantSpent)
	}
}
