package compman

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// startServer spins up a server on a loopback listener with a census-like
// dataset registered, returning a connected client.
func startServer(t *testing.T, totalBudget float64) (*Client, *Server) {
	return startServerCfg(t, totalBudget, ServerConfig{})
}

// startServerCfg is startServer with an explicit server configuration (the
// chaos suite injects fault wrappers and deadlines through it).
func startServerCfg(t *testing.T, totalBudget float64, cfg ServerConfig) (*Client, *Server) {
	t.Helper()
	reg := dataset.NewRegistry()
	rng := mathutil.NewRNG(1)
	tbl := dataset.New([]string{"age"})
	for i := 0; i < 5000; i++ {
		if err := tbl.Append(mathutil.Vec{mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Register("census", tbl, dataset.RegisterOptions{
		TotalBudget:  totalBudget,
		Ranges:       []dp.Range{{Lo: 0, Hi: 150}},
		AgedFraction: 0.1,
		Seed:         2,
	}); err != nil {
		t.Fatal(err)
	}
	return serveRegistry(t, reg, cfg)
}

// serveRegistry serves reg under cfg until the test ends and dials it.
func serveRegistry(t *testing.T, reg *dataset.Registry, cfg ServerConfig) (*Client, *Server) {
	t.Helper()
	srv := NewServer(reg, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})

	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, srv
}

// buildCensusRegistry mirrors startServer's dataset without the server.
func buildCensusRegistry(t *testing.T, totalBudget float64) *dataset.Registry {
	t.Helper()
	reg := dataset.NewRegistry()
	rng := mathutil.NewRNG(1)
	tbl := dataset.New([]string{"age"})
	for i := 0; i < 2000; i++ {
		if err := tbl.Append(mathutil.Vec{mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Register("census", tbl, dataset.RegisterOptions{
		TotalBudget: totalBudget,
		Ranges:      []dp.Range{{Lo: 0, Hi: 150}},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestPingAndList(t *testing.T) {
	client, _ := startServer(t, 100)
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	names, err := client.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "census" {
		t.Errorf("Datasets = %v", names)
	}
}

func TestQueryMeanEndToEnd(t *testing.T) {
	client, _ := startServer(t, 100)
	resp, err := client.Query(&Request{
		Dataset:      "census",
		Program:      &ProgramSpec{Type: "mean", Col: 0},
		Mode:         "tight",
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:      5,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.Output[0]-40) > 5 {
		t.Errorf("mean = %v, want ~40", resp.Output[0])
	}
	if resp.EpsilonSpent != 5 {
		t.Errorf("EpsilonSpent = %v", resp.EpsilonSpent)
	}

	rem, err := client.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-95) > 1e-9 {
		t.Errorf("remaining = %v, want 95", rem)
	}
}

// The operator's quantum is a floor: a query's QuantumMillis can lengthen
// it but not shorten it, or a client could switch off the timing defense
// for its own blocks.
func TestQueryCannotLowerDefaultQuantum(t *testing.T) {
	var mu sync.Mutex
	var quanta []time.Duration
	record := func(inner sandbox.Chamber) sandbox.Chamber {
		if in, ok := inner.(*sandbox.InProcess); ok {
			mu.Lock()
			quanta = append(quanta, in.Policy.Quantum)
			mu.Unlock()
		}
		return inner
	}
	client, _ := startServerCfg(t, 10, ServerConfig{DefaultQuantum: 30 * time.Millisecond, ChamberWrapper: record})
	for _, c := range []struct {
		millis int64
		want   time.Duration
	}{{1, 30 * time.Millisecond}, {50, 50 * time.Millisecond}} {
		req := meanQuery(0.5, 1500) // 4500 private rows: three blocks
		req.QuantumMillis = c.millis
		mu.Lock()
		quanta = nil
		mu.Unlock()
		if _, err := client.Query(req); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if len(quanta) != 1 || quanta[0] != c.want {
			t.Errorf("QuantumMillis %d ran under %v, want [%v]", c.millis, quanta, c.want)
		}
		mu.Unlock()
	}
}

func TestQueryBudgetEnforcedAcrossQueries(t *testing.T) {
	client, _ := startServer(t, 1.0)
	req := &Request{
		Dataset:      "census",
		Program:      &ProgramSpec{Type: "mean", Col: 0},
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:      0.6,
	}
	if _, err := client.Query(req); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(req); err == nil || !strings.Contains(err.Error(), "budget exhausted") {
		t.Errorf("second query err = %v, want budget exhausted", err)
	}
	// The refused query consumed nothing.
	rem, _ := client.RemainingBudget("census")
	if math.Abs(rem-0.4) > 1e-9 {
		t.Errorf("remaining = %v, want 0.4", rem)
	}
}

func TestQueryLooseMode(t *testing.T) {
	client, _ := startServer(t, 100)
	resp, err := client.Query(&Request{
		Dataset:      "census",
		Program:      &ProgramSpec{Type: "mean", Col: 0},
		Mode:         "loose",
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 300}},
		Epsilon:      4,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.Output[0]-40) > 15 {
		t.Errorf("loose mean = %v", resp.Output[0])
	}
	if len(resp.EffectiveRanges) != 1 || resp.EffectiveRanges[0].Hi > 300 {
		t.Errorf("effective ranges = %v", resp.EffectiveRanges)
	}
}

func TestQueryHelperModeWithTranslateSpec(t *testing.T) {
	client, _ := startServer(t, 100)
	resp, err := client.Query(&Request{
		Dataset: "census",
		Program: &ProgramSpec{Type: "mean", Col: 0},
		Mode:    "helper",
		Translate: &TranslateSpec{
			InputDim: []int{0},
			Scale:    []float64{1},
			Offset:   []float64{0},
		},
		Epsilon: 4,
		Seed:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The IQR of N(40,10) is ~[33, 47]; the mean 40 lies inside, and the
	// output should land near it.
	if math.Abs(resp.Output[0]-40) > 15 {
		t.Errorf("helper mean = %v", resp.Output[0])
	}
}

// Helper ranges under user-level privacy are refused before the charge:
// the helper's percentile estimate ranks single rows, so a user with k rows
// would spend k times the ε charged. The same request at record level runs.
func TestQueryUserLevelHelperRefused(t *testing.T) {
	client, _ := startServer(t, 100)
	req := &Request{
		Dataset: "census",
		Program: &ProgramSpec{Type: "mean", Col: 0},
		Mode:    "helper",
		Translate: &TranslateSpec{
			InputDim: []int{0},
			Scale:    []float64{1},
			Offset:   []float64{0},
		},
		Epsilon:   4,
		BlockSize: 200,
		Seed:      6,
		UserLevel: true,
	}
	if _, err := client.Query(req); err == nil || !strings.Contains(err.Error(), "user-level") {
		t.Fatalf("helper ranges at user level: err = %v, want the refusal", err)
	}
	if rem, err := client.RemainingBudget("census"); err != nil || rem != 100 {
		t.Errorf("refused query: remaining %v, err %v; want 100", rem, err)
	}
	req.UserLevel = false
	if _, err := client.Query(req); err != nil {
		t.Fatalf("helper ranges at record level: %v", err)
	}
	if rem, err := client.RemainingBudget("census"); err != nil || rem != 96 {
		t.Errorf("record-level query: remaining %v, err %v; want 96", rem, err)
	}
}

func TestQueryAccuracyGoal(t *testing.T) {
	client, _ := startServer(t, 100)
	resp, err := client.Query(&Request{
		Dataset:      "census",
		Program:      &ProgramSpec{Type: "mean", Col: 0},
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Accuracy:     &AccuracySpec{Rho: 0.9, Confidence: 0.9},
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.EpsilonSpent <= 0 {
		t.Fatalf("accuracy-mode query spent %v", resp.EpsilonSpent)
	}
	// Accuracy goal met: within 10% of the true ~40.
	if math.Abs(resp.Output[0]-40)/40 > 0.2 {
		t.Errorf("output %v violates even a doubled accuracy margin", resp.Output[0])
	}
	rem, _ := client.RemainingBudget("census")
	if math.Abs((100-rem)-resp.EpsilonSpent) > 1e-9 {
		t.Errorf("ledger charged %v, response says %v", 100-rem, resp.EpsilonSpent)
	}
}

func TestQueryAutoBlockSize(t *testing.T) {
	client, _ := startServer(t, 100)
	resp, err := client.Query(&Request{
		Dataset:       "census",
		Program:       &ProgramSpec{Type: "mean", Col: 0},
		OutputRanges:  []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:       2,
		AutoBlockSize: true,
		Seed:          8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// For a mean query the optimizer should choose small blocks (Example 3),
	// far below the n^0.6 default of ~166.
	if resp.BlockSize >= 100 {
		t.Errorf("auto block size = %d, expected small for a mean query", resp.BlockSize)
	}
}

func TestQueryValidationErrors(t *testing.T) {
	client, _ := startServer(t, 100)
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown dataset", Request{Dataset: "nope", Program: &ProgramSpec{Type: "mean"}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 1}}, Epsilon: 1}},
		{"missing program", Request{Dataset: "census", OutputRanges: []RangeSpec{{Lo: 0, Hi: 1}}, Epsilon: 1}},
		{"unknown program", Request{Dataset: "census", Program: &ProgramSpec{Type: "sorcery"}, Epsilon: 1}},
		{"no epsilon or accuracy", Request{Dataset: "census", Program: &ProgramSpec{Type: "mean"}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 1}}}},
		{"both epsilon and accuracy", Request{Dataset: "census", Program: &ProgramSpec{Type: "mean"}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 1}}, Epsilon: 1, Accuracy: &AccuracySpec{Rho: 0.9, Confidence: 0.9}}},
		{"bad mode", Request{Dataset: "census", Program: &ProgramSpec{Type: "mean"}, Mode: "psychic", Epsilon: 1}},
		{"inverted range", Request{Dataset: "census", Program: &ProgramSpec{Type: "mean"}, OutputRanges: []RangeSpec{{Lo: 5, Hi: 1}}, Epsilon: 1}},
		{"helper without translate", Request{Dataset: "census", Program: &ProgramSpec{Type: "mean"}, Mode: "helper", Epsilon: 1}},
		{"bad percentile", Request{Dataset: "census", Program: &ProgramSpec{Type: "percentile", P: 2}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 1}}, Epsilon: 1}},
		{"binary program", Request{Dataset: "census", Program: &ProgramSpec{Type: "binary", Path: "/bin/true", OutputDims: 1}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 1}}, Epsilon: 1}},
	}
	for _, c := range cases {
		if _, err := client.Query(&c.req); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Failed queries must not have consumed budget.
	rem, _ := client.RemainingBudget("census")
	if rem != 100 {
		t.Errorf("failed queries consumed budget: remaining %v", rem)
	}
}

func TestMalformedWireRequest(t *testing.T) {
	client, srv := startServer(t, 100)
	// A connection that opens with anything but a hello is dropped without
	// a reply.
	checkServerDrops(t, srv, []byte("this is not a hello\n"))

	// On a live connection, a well-framed request whose body does not parse
	// is answered with an error, and the connection stays usable: the frame
	// boundary proved the stream is still in sync. (A bad length or CRC
	// instead tears the connection down — see the wire tests.)
	e := newFrameEncoder(nil)
	e.u8(wireMsgRequest)
	e.b = append(e.b, "not a request body"...)
	frame, err := e.finishFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err := readWireFrame(client.r, &client.rbuf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodePayload(payload, wireMsgResponse, "response", decodeResponseBody)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "malformed request") {
		t.Errorf("response to a garbled body = %+v", resp)
	}
	if err := client.Ping(); err != nil {
		t.Errorf("connection unusable after a garbled body: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	client, srv := startServer(t, 1000)
	_ = client
	addr := srv.Addr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = c.Query(&Request{
				Dataset:      "census",
				Program:      &ProgramSpec{Type: "mean", Col: 0},
				OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
				Epsilon:      1,
				Seed:         int64(i),
			})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	rem, _ := client.RemainingBudget("census")
	if math.Abs(rem-992) > 1e-6 {
		t.Errorf("remaining = %v, want 992", rem)
	}
}

func TestServerStats(t *testing.T) {
	client, _ := startServer(t, 1.0)
	// One success, one budget refusal, one validation failure.
	ok := &Request{
		Dataset:      "census",
		Program:      &ProgramSpec{Type: "mean", Col: 0},
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:      0.8,
	}
	if _, err := client.Query(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(ok); err == nil { // budget now short
		t.Fatal("expected budget refusal")
	}
	if _, err := client.Query(&Request{Dataset: "census", Epsilon: 1}); err == nil {
		t.Fatal("expected validation failure")
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueriesOK != 1 || stats.BudgetRefusals != 1 || stats.QueriesFailed != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.TotalQueryMillis < 0 {
		t.Errorf("negative latency: %+v", stats)
	}
}

func TestRegisterDatasetOverWire(t *testing.T) {
	client, _ := startServer(t, 100)
	rows := make([][]float64, 200)
	for i := range rows {
		rows[i] = []float64{float64(20 + i%50)}
	}
	err := client.RegisterDataset(&RegisterSpec{
		Name:         "pushed",
		Rows:         rows,
		Columns:      []string{"age"},
		TotalBudget:  5,
		Ranges:       []RangeSpec{{Lo: 0, Hi: 150}},
		AgedFraction: 0.1,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	names, err := client.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("datasets = %v", names)
	}
	// The pushed dataset is immediately queryable.
	resp, err := client.Query(&Request{
		Dataset:      "pushed",
		Program:      &ProgramSpec{Type: "mean", Col: 0},
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:      3,
		BlockSize:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output[0] < 20 || resp.Output[0] > 70 {
		t.Errorf("pushed dataset mean = %v", resp.Output[0])
	}

	// Validation flows through.
	if err := client.RegisterDataset(&RegisterSpec{Name: "bad", Rows: rows}); err == nil {
		t.Error("zero-budget registration accepted")
	}
	if err := client.RegisterDataset(&RegisterSpec{Name: "pushed", Rows: rows, TotalBudget: 1}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := client.RegisterDataset(&RegisterSpec{
		Name: "ragged", Rows: [][]float64{{1}, {1, 2}}, TotalBudget: 1,
	}); err == nil {
		t.Error("ragged rows accepted")
	}
	_, err = client.roundTrip(&Request{Op: OpRegister})
	if err == nil {
		t.Error("register without payload accepted")
	}
}

func TestServerIdleTimeout(t *testing.T) {
	reg := buildCensusRegistry(t, 10)
	srv := NewServer(reg, ServerConfig{IdleTimeout: 150 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	// Go idle past the timeout: the server hangs up, so the next round
	// trip fails.
	time.Sleep(400 * time.Millisecond)
	if err := client.Ping(); err == nil {
		t.Error("idle connection survived the timeout")
	}
	// Fresh connections still work.
	c2, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Errorf("fresh connection refused: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	_, srv := startServer(t, 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProgramSpecResolve(t *testing.T) {
	good := []ProgramSpec{
		{Type: "mean", Col: 0},
		{Type: "median", Col: 1},
		{Type: "variance"},
		{Type: "percentile", P: 0.5},
		{Type: "covariance", Col: 0, ColB: 1},
		{Type: "histogram", Col: 0, Lo: 0, Hi: 10, Bins: 5},
		{Type: "kmeans", K: 2, FeatureDims: 2, Iters: 5},
		{Type: "logreg", FeatureDims: 2, LabelCol: 2, Iters: 5},
		{Type: "linreg", FeatureDims: 2, LabelCol: 2},
		{Type: "naivebayes", FeatureDims: 2, LabelCol: 2},
	}
	for _, ps := range good {
		prog, err := ps.resolve()
		if err != nil || prog == nil {
			t.Errorf("resolve(%+v) = %v, %v", ps, prog, err)
		}
	}
	bin := ProgramSpec{Type: "binary", Path: "/bin/app", OutputDims: 2}
	if prog, err := bin.resolve(); prog != nil || !errors.Is(err, ErrBadProgram) || !strings.Contains(err.Error(), "not served") {
		t.Errorf("binary resolve = %v, %v; want the binary refusal", prog, err)
	}
}
