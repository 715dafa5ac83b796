package compman

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"gupt/internal/faultinject"
	"gupt/internal/telemetry"
)

// sampleRequests returns one representative request per Op, with every
// optional sub-message exercised somewhere. These drive the round-trip
// tests, the golden fixtures, and the differential fuzz seeds.
func sampleRequests() map[string]*Request {
	return map[string]*Request{
		"query": {
			Op:      OpQuery,
			Dataset: "census",
			Program: &ProgramSpec{Type: "mean", Col: 2},
			OutputRanges: []RangeSpec{
				{Lo: 0, Hi: 150},
			},
			Epsilon:        0.5,
			BlockSize:      250,
			Gamma:          3,
			Seed:           42,
			DeadlineMillis: 1500,
		},
		"query-helper": {
			Op:          OpQuery,
			Dataset:     "census",
			Program:     &ProgramSpec{Type: "percentile", Col: 1, P: 0.5},
			Mode:        "helper",
			InputRanges: []RangeSpec{{Lo: 0, Hi: 1}, {Lo: -10, Hi: 10}},
			Translate: &TranslateSpec{
				InputDim: []int{1},
				Scale:    []float64{2},
				Offset:   []float64{-1},
			},
			Epsilon:        1.25,
			AutoBlockSize:  true,
			QuantumMillis:  50,
			UserLevel:      true,
			UserColumn:     3,
			PercentileLow:  0.1,
			PercentileHigh: 0.9,
		},
		"query-accuracy": {
			Op:           OpQuery,
			Dataset:      "census",
			Program:      &ProgramSpec{Type: "binary", Path: "/usr/bin/true", Args: []string{"-v", "--x=1"}, OutputDims: 2},
			Mode:         "loose",
			OutputRanges: []RangeSpec{{Lo: -1, Hi: 1}, {Lo: 0, Hi: 9}},
			Accuracy:     &AccuracySpec{Rho: 0.9, Confidence: 0.95},
		},
		"budget": {Op: OpBudget, Dataset: "census"},
		"list":   {Op: OpList},
		"stats":  {Op: OpStats},
		"register": {
			Op: OpRegister,
			Register: &RegisterSpec{
				Name:         "tbl",
				Rows:         [][]float64{{1, 2}, {3, 4}, {5, 6}},
				Columns:      []string{"a", "b"},
				TotalBudget:  10,
				Ranges:       []RangeSpec{{Lo: 0, Hi: 10}, {Lo: 0, Hi: 10}},
				AgedFraction: 0.25,
				Seed:         9,
			},
		},
		"session": {
			Op:      OpSession,
			Dataset: "census",
			Session: &SessionSpec{
				TotalEpsilon: 2,
				Queries: []SessionQuery{
					{
						Program:      ProgramSpec{Type: "mean", Col: 0},
						OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
						BlockSize:    100,
						Gamma:        2,
						Seed:         5,
					},
					{
						Program:      ProgramSpec{Type: "logreg", FeatureDims: 4, LabelCol: 4, Iters: 20, LearnRate: 0.1, Seed: 1},
						OutputRanges: []RangeSpec{{Lo: -5, Hi: 5}},
					},
				},
			},
		},
		"quantum": {Op: OpQuantum},
	}
}

func sampleResponses() map[string]*Response {
	return map[string]*Response{
		"ok": {
			OK:              true,
			TraceID:         "0123456789abcdef0123456789abcdef",
			Output:          []float64{41.5, -2.25},
			EpsilonSpent:    0.5,
			EpsilonCharged:  0.5,
			EffectiveRanges: []RangeSpec{{Lo: 12, Hi: 71}},
			NumBlocks:       20,
			BlockSize:       250,
			FailedBlocks:    1,
		},
		"error": {
			Error:          "budget exhausted",
			EpsilonCharged: 0.25,
		},
		"stats": {
			OK: true,
			Stats: &ServerStats{
				QueriesOK:         3,
				QueriesFailed:     1,
				BudgetRefusals:    2,
				QueriesAborted:    1,
				QueriesDegraded:   1,
				BlocksSubstituted: 4,
				QueryRetries:      2,
				TotalQueryMillis:  1234,
			},
		},
		"list": {OK: true, Remaining: 7.5, Datasets: []string{"census", "trips"}},
		"session": {
			OK:             true,
			EpsilonCharged: 2,
			Session: []SessionResult{
				{Output: []float64{1.5}, EpsilonSpent: 1.25},
				{Error: "chamber died", EpsilonSpent: 0.75, FailedBlocks: 3},
			},
		},
	}
}

func sampleWorkRequest() *WorkRequest {
	return &WorkRequest{
		Spec: WorkSpec{
			Program:       ProgramSpec{Type: "mean", Col: 1},
			QuantumMillis: 25,
			TraceID:       "0123456789abcdef0123456789abcdef",
		},
		Block: [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}},
	}
}

func sampleWorkResponse() *WorkResponse {
	return &WorkResponse{
		Output:  []float64{4.5, 5.5, 6.5},
		TraceID: "0123456789abcdef0123456789abcdef",
		Spans: []telemetry.RemoteSpan{
			{Stage: telemetry.StageWorkerSetup, Status: telemetry.StatusOK, Millis: 0.25},
			{Stage: telemetry.StageWorkerExecute, Status: telemetry.StatusOK, Millis: 12.5},
		},
	}
}

// TestWireRoundTrip checks every sample message survives a binary
// encode/decode unchanged.
func TestWireRoundTrip(t *testing.T) {
	for name, req := range sampleRequests() {
		frame, err := AppendRequestFrame(nil, req)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, n, err := DecodeRequestFrame(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if n != len(frame) {
			t.Errorf("%s: consumed %d of %d frame bytes", name, n, len(frame))
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, req)
		}
	}
	for name, resp := range sampleResponses() {
		frame, err := AppendResponseFrame(nil, resp)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, _, err := DecodeResponseFrame(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, resp)
		}
	}
	wreq := sampleWorkRequest()
	frame, err := AppendWorkRequestFrame(nil, wreq)
	if err != nil {
		t.Fatal(err)
	}
	gotReq, _, err := DecodeWorkRequestFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReq, wreq) {
		t.Errorf("work request mismatch:\n got %+v\nwant %+v", gotReq, wreq)
	}
	wresp := sampleWorkResponse()
	frame, err = AppendWorkResponseFrame(nil, wresp)
	if err != nil {
		t.Fatal(err)
	}
	gotResp, _, err := DecodeWorkResponseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotResp, wresp) {
		t.Errorf("work response mismatch:\n got %+v\nwant %+v", gotResp, wresp)
	}
}

// TestWireRoundTripNonFinite checks NaN and ±Inf survive the binary wire
// bit-exactly. DeepEqual rejects NaN, so stability is asserted on the
// canonical frame bytes.
func TestWireRoundTripNonFinite(t *testing.T) {
	resp := &Response{
		OK:     true,
		Output: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)},
	}
	frame, err := AppendResponseFrame(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeResponseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range resp.Output {
		if math.Float64bits(got.Output[i]) != math.Float64bits(want) {
			t.Errorf("output[%d]: bits %x, want %x", i, math.Float64bits(got.Output[i]), math.Float64bits(want))
		}
	}
	again, err := AppendResponseFrame(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Error("non-finite response has no stable canonical frame")
	}
}

// TestWireEmptyNormalization checks zero-length collections decode to nil,
// so empty and absent are one value after the wire.
func TestWireEmptyNormalization(t *testing.T) {
	req := &Request{
		Op:           OpQuery,
		OutputRanges: []RangeSpec{},
		Register: &RegisterSpec{
			Rows:    [][]float64{},
			Columns: []string{},
		},
	}
	frame, err := AppendRequestFrame(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeRequestFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.OutputRanges != nil || got.Register.Rows != nil || got.Register.Columns != nil {
		t.Errorf("empty collections must decode nil, got %+v", got)
	}
}

// TestWireBinaryQuery runs a real query over a freshly dialed connection.
func TestWireBinaryQuery(t *testing.T) {
	_, srv := startServer(t, 100)
	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, err := client.Query(meanQuery(0.5, 250))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(resp.Output) != 1 || math.IsNaN(resp.Output[0]) {
		t.Errorf("output = %v", resp.Output)
	}
	if err := client.Ping(); err != nil {
		t.Errorf("ping after query: %v", err)
	}
	rem, err := client.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-99.5) > 1e-9 {
		t.Errorf("remaining budget %v, want 99.5", rem)
	}
}

// TestWireOldPeersFailClosed: version 4 is the only wire. A peer on a
// retired version — or speaking no version at all — is refused, never
// served in an older dialect.
func TestWireOldPeersFailClosed(t *testing.T) {
	t.Run("server-refuses-v3-hello", func(t *testing.T) {
		_, srv := startServer(t, 100)
		checkServerDrops(t, srv, wireHello(3))
	})
	t.Run("tenancy-server-refuses-v2-hello", func(t *testing.T) {
		// A v2 client could not carry an API key; it is now refused at the
		// handshake rather than reaching the tenancy check keyless.
		srv, _, _ := startTenantServer(t, 100, ServerConfig{})
		checkServerDrops(t, srv, wireHello(2))
	})
	t.Run("server-drops-json-line", func(t *testing.T) {
		_, srv := startServer(t, 100)
		checkServerDrops(t, srv, []byte(`{"op":"ping"}`+"\n"))
	})
	t.Run("pool-refuses-v3-worker", func(t *testing.T) {
		l := fakePeer(t, wireHello(3))
		pool, err := NewWorkerPool([]string{l.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		_, err = pool.ready(context.Background())
		if !errors.Is(err, ErrPeerTooOld) {
			t.Fatalf("pool error = %v, want ErrPeerTooOld", err)
		}
		if !strings.Contains(err.Error(), l.Addr().String()) {
			t.Errorf("pool error %q does not name the stale worker %s", err, l.Addr())
		}
	})
	t.Run("tail-less-frames-refused", func(t *testing.T) {
		// Older dialects ended the request before the API key and deadline
		// and the response before the tenant and retry hint. Cut those
		// fields off a current frame and re-seal it under a valid CRC: the
		// decoder must see a truncated payload, not an older version.
		req := sampleRequests()["query"]
		req.APIKey = "gupt_key"
		reqFrame, err := AppendRequestFrame(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		respFrame, err := AppendResponseFrame(nil, sampleResponses()["ok"])
		if err != nil {
			t.Fatal(err)
		}
		for name, frame := range map[string][]byte{
			"request-v3":  resealCut(reqFrame, 8),
			"request-v2":  resealCut(reqFrame, 8+4+len(req.APIKey)),
			"response-v2": resealCut(respFrame, 8+4),
		} {
			var err error
			if strings.HasPrefix(name, "request") {
				_, _, err = DecodeRequestFrame(frame)
			} else {
				_, _, err = DecodeResponseFrame(frame)
			}
			if !errors.Is(err, ErrWireFrame) || !strings.Contains(err.Error(), "truncated") {
				t.Errorf("%s: decode error = %v, want a truncated-payload ErrWireFrame", name, err)
			}
		}
	})
}

// resealCut drops the last n payload bytes of a frame and recomputes its
// header, so only the grammar — not the length or CRC — can reject it.
func resealCut(frame []byte, n int) []byte {
	payload := frame[wireFrameHeaderLen : len(frame)-n]
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, wireCRCTable))
	return append(out, payload...)
}

// checkServerDrops opens a connection with the given bytes and asserts the
// server closes it without writing anything back.
func checkServerDrops(t *testing.T, srv *Server, opening []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(opening); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if b, err := bufio.NewReader(conn).ReadByte(); err != io.EOF {
		t.Errorf("server answered %q with %#x (err=%v); must close without a reply", opening, b, err)
	}
}

// fakePeer listens for one connection, reads the dialer's hello and
// answers it with reply.
func fakePeer(t *testing.T, reply []byte) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello := make([]byte, WireHelloLen)
		if _, err := io.ReadFull(conn, hello); err != nil {
			return
		}
		_, _ = conn.Write(reply)
	}()
	return l
}

// TestWorkerPoolChaos runs the binary pool↔worker wire through the
// faultinject wire-chaos proxy: the proxy must relay frames unit-by-unit,
// and light injected chaos must surface as redials/substitutions, never as
// corrupted outputs or broken ledger accounting.
func TestWorkerPoolChaos(t *testing.T) {
	worker := NewWorker(WorkerConfig{})
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go worker.Serve(wl)
	t.Cleanup(func() { worker.Close() })

	proxy := &faultinject.Proxy{
		Upstream: wl.Addr().String(),
		Schedule: &faultinject.ProtoSchedule{
			Seed: 11,
			Rates: map[faultinject.ProtoFault]float64{
				faultinject.ProtoCorrupt: 0.05,
				faultinject.ProtoStall:   0.05,
			},
			StallFor: time.Millisecond,
		},
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	pool, err := NewWorkerPool([]string{proxy.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	for i := 0; i < 8; i++ {
		chamber := pool.Chamber(WorkSpec{Program: ProgramSpec{Type: "mean", Col: 0}}, nil)
		out, err := chamber.Execute(contextWithTimeout(t, 5*time.Second), workerBlock(5))
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if len(out) != 1 || out[0] != 2 {
			t.Errorf("block %d: remote mean = %v, want [2]", i, out)
		}
	}
}

// TestWireNegotiationFailClosed covers the garbled-handshake paths: every
// reply a client cannot prove is a valid hello echo terminates the
// connection, and a server that sees a mangled hello drops the client
// instead of guessing a wire.
func TestWireNegotiationFailClosed(t *testing.T) {
	t.Run("client-garbage-reply", func(t *testing.T) {
		checkClientRejects(t, []byte("XYZ garbage\n"))
	})
	t.Run("client-upward-version", func(t *testing.T) {
		checkClientRejects(t, wireHello(WireVersion+1))
	})
	t.Run("client-mangled-echo", func(t *testing.T) {
		checkClientRejects(t, []byte{WireMagic, 'G', 'X', 1, '\n'})
	})
	t.Run("client-truncated-reply", func(t *testing.T) {
		// The fake server closes after 2 bytes; the client must error on
		// the half-read echo.
		checkClientRejects(t, []byte{WireMagic, 'G'})
	})
	t.Run("client-json-reply", func(t *testing.T) {
		checkClientRejects(t, []byte("{not json}\n"))
	})

	serverCases := map[string][]byte{
		"server-mangled-hello":   {WireMagic, 'G', 'X', 1, '\n'},
		"server-unterminated":    {WireMagic, 'G', 'W', 1, 'x'},
		"server-truncated-hello": {WireMagic, 'G'},
	}
	for name, hello := range serverCases {
		t.Run(name, func(t *testing.T) {
			_, srv := startServer(t, 100)
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(hello); err != nil {
				t.Fatal(err)
			}
			if len(hello) < WireHelloLen {
				// Half a hello then EOF: the server must fail closed on the
				// truncated handshake.
				tc := conn.(*net.TCPConn)
				tc.CloseWrite()
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := bufio.NewReader(conn).ReadByte(); err != io.EOF {
				t.Errorf("server answered a garbled hello (err=%v); must close", err)
			}
		})
	}
}

// checkClientRejects dials a fake server that answers the client's hello
// with the given bytes and asserts negotiation fails closed.
func checkClientRejects(t *testing.T, reply []byte) {
	t.Helper()
	l := fakePeer(t, reply)
	if _, err := Dial(l.Addr().String()); !errors.Is(err, ErrWireNegotiation) {
		t.Errorf("negotiation error = %v, want ErrWireNegotiation", err)
	}
}

// TestWireFrameCorruptionFailsClosed checks a binary connection is torn
// down on the first bad frame rather than resynchronized by guesswork.
func TestWireFrameCorruptionFailsClosed(t *testing.T) {
	_, srv := startServer(t, 100)
	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	frame, err := AppendRequestFrame(nil, &Request{Op: OpQuantum})
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xFF // corrupt the payload under an unchanged CRC
	if _, err := client.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = client.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.r.ReadByte(); err != io.EOF {
		t.Errorf("server answered a corrupt frame (err=%v); must close", err)
	}
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
