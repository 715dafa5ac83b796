package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"

	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/ledger"
	"gupt/internal/telemetry"
)

// startGuptdWithLedger assembles the durable deployment guptd's main
// builds with -ledger-dir: registry, recovered ledger, compman server and
// admin endpoint sharing one telemetry registry.
func startGuptdWithLedger(t *testing.T, reg *dataset.Registry, dir string) (*compman.Client, *ledger.Ledger, string) {
	t.Helper()
	tel := telemetry.NewRegistry()
	led, err := ledger.Open(dir, ledger.Options{Sync: ledger.SyncBatched, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	if err := ledger.Attach(led, reg); err != nil {
		t.Fatal(err)
	}
	srv := compman.NewServer(reg, compman.ServerConfig{Telemetry: tel})
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(sl)
	t.Cleanup(func() { srv.Close() })

	al, stopAdmin, err := serveAdmin("127.0.0.1:0", newAdminHandler(tel, reg, led, srv, nil, ""))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAdmin)

	client, err := compman.Dial(sl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, led, "http://" + al.Addr().String()
}

// The acceptance walk for the durable ledger: analyst queries spend ε
// through the full protocol path, the platform "crashes" (the process
// state is abandoned without any graceful flush), and a rebuilt deployment
// over the same ledger directory must refuse exactly the budget the first
// life acknowledged — a restart is not a budget reset.
func TestLedgerSurvivesPlatformRestart(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("age\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "%d\n", 30+i%10)
	}
	csv := writeCSV(t, sb.String())
	dir := t.TempDir()

	newReg := func() *dataset.Registry {
		reg := dataset.NewRegistry()
		if err := registerSpec(reg, "census="+csv+":budget=2:header"); err != nil {
			t.Fatal(err)
		}
		return reg
	}

	// First life: spend 1.0 of the 2.0 budget over the wire.
	client, _, admin := startGuptdWithLedger(t, newReg(), dir)
	mean := func(c *compman.Client, eps float64) (*compman.Response, error) {
		return c.Query(&compman.Request{
			Dataset:      "census",
			Program:      &compman.ProgramSpec{Type: "mean"},
			OutputRanges: []compman.RangeSpec{{Lo: 0, Hi: 100}},
			Epsilon:      eps,
			Seed:         7,
		})
	}
	for i := 0; i < 2; i++ {
		if _, err := mean(client, 0.5); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if rem, err := client.RemainingBudget("census"); err != nil || rem != 1.0 {
		t.Fatalf("remaining = %v (%v), want 1.0", rem, err)
	}

	// The admin /ledger view must reflect a live, synced ledger.
	resp, err := http.Get(admin + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	var st telemetry.LedgerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Enabled || st.Records == 0 || st.Datasets != 1 {
		t.Fatalf("/ledger = %+v, want enabled with records and 1 dataset", st)
	}
	if st.SyncedRecords < st.Records {
		t.Fatalf("/ledger shows unsynced acknowledged charges: synced %d < records %d", st.SyncedRecords, st.Records)
	}

	// Crash: no graceful shutdown, no final flush. (Process-level SIGKILL
	// durability is proven by the internal/ledger kill matrix; here the
	// platform layers above it are exercised end to end.)

	// Second life over the same directory.
	client2, led2, _ := startGuptdWithLedger(t, newReg(), dir)
	if rem, err := client2.RemainingBudget("census"); err != nil || rem != 1.0 {
		t.Fatalf("remaining after restart = %v (%v), want 1.0 — restart must not refund spent ε", rem, err)
	}
	// The surviving budget is spendable once; then the books are closed.
	if _, err := mean(client2, 1.0); err != nil {
		t.Fatalf("spending the surviving budget: %v", err)
	}
	if _, err := mean(client2, 0.5); err == nil {
		t.Fatal("overdraft after restart must refuse")
	}
	if got := led2.Spent("census"); got != 2.0 {
		t.Fatalf("ledger spent = %v, want 2.0", got)
	}

	// Third life: the dataset must come back exhausted.
	client3, _, _ := startGuptdWithLedger(t, newReg(), dir)
	if rem, err := client3.RemainingBudget("census"); err != nil || rem != 0 {
		t.Fatalf("remaining after exhaustion = %v (%v), want 0", rem, err)
	}
	if _, err := mean(client3, 0.1); err == nil {
		t.Fatal("exhausted dataset must refuse after restart")
	}
}

// Datasets registered at runtime through the wire protocol bind to the
// ledger via the registration hook and are just as durable.
func TestLedgerCoversRuntimeRegistration(t *testing.T) {
	dir := t.TempDir()
	reg := dataset.NewRegistry()
	seed := writeCSV(t, "x\n1\n2\n3\n4\n5\n6\n7\n8\n")
	if err := registerSpec(reg, "boot="+seed+":budget=1:header"); err != nil {
		t.Fatal(err)
	}
	client, led, _ := startGuptdWithLedger(t, reg, dir)

	rows := make([][]float64, 60)
	for i := range rows {
		rows[i] = []float64{float64(i)}
	}
	if err := client.RegisterDataset(&compman.RegisterSpec{
		Name:        "runtime",
		Columns:     []string{"x"},
		Rows:        rows,
		TotalBudget: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(&compman.Request{
		Dataset:      "runtime",
		Program:      &compman.ProgramSpec{Type: "mean"},
		OutputRanges: []compman.RangeSpec{{Lo: 0, Hi: 60}},
		Epsilon:      1.25,
		Seed:         3,
	}); err != nil {
		t.Fatal(err)
	}
	if got := led.Spent("runtime"); got != 1.25 {
		t.Fatalf("ledger spent = %v, want 1.25", got)
	}
	led.Close()

	rec, err := ledger.Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Datasets["runtime"].Spent; got != 1.25 {
		t.Fatalf("recovered runtime spent = %v, want 1.25", got)
	}
}
