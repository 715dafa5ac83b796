package faultinject

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/compman"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

func innerChamber() sandbox.Chamber {
	return &sandbox.InProcess{Program: analytics.Mean{Col: 0}}
}

func block() []mathutil.Vec { return []mathutil.Vec{{10}, {20}, {30}} }

// Same seed and rates must produce the identical fault sequence: chaos
// failures have to reproduce exactly from their seed.
func TestScheduleDeterministicInSeed(t *testing.T) {
	draw := func(seed int64) []Kind {
		s := &Schedule{Seed: seed, Rates: map[Kind]float64{
			CrashBefore: 0.2, Garbage: 0.2, WrongArity: 0.2,
		}}
		out := make([]Kind, 200)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	different := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i] != None {
			different = true
		}
	}
	if !different {
		t.Fatal("schedule injected nothing — vacuous determinism check")
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

// A scripted plan must hit exactly the executions it names.
func TestSchedulePlanCycles(t *testing.T) {
	s := &Schedule{Plan: []Kind{None, CrashBefore, Garbage}}
	want := []Kind{None, CrashBefore, Garbage, None, CrashBefore, Garbage}
	for i, w := range want {
		if got := s.next(); got != w {
			t.Errorf("call %d: got %v, want %v", i, got, w)
		}
	}
	counts := s.Counts()
	if counts[CrashBefore] != 2 || counts[Garbage] != 2 || counts[None] != 2 {
		t.Errorf("counts = %v", counts)
	}
}

func TestChamberFaultKinds(t *testing.T) {
	cases := []struct {
		kind      Kind
		wantErr   bool
		checkVec  func(mathutil.Vec) bool
		wantDelay time.Duration
	}{
		{kind: None, checkVec: func(v mathutil.Vec) bool { return len(v) == 1 && v[0] == 20 }},
		{kind: CrashBefore, wantErr: true},
		{kind: CrashAfter, wantErr: true},
		{kind: Garbage, checkVec: func(v mathutil.Vec) bool {
			return len(v) == 1 && math.IsNaN(v[0])
		}},
		{kind: OutOfRange, checkVec: func(v mathutil.Vec) bool {
			return len(v) == 1 && v[0] == 1e12
		}},
		{kind: WrongArity, checkVec: func(v mathutil.Vec) bool { return len(v) == 2 }},
		{kind: SlowStart, wantDelay: 5 * time.Millisecond, checkVec: func(v mathutil.Vec) bool {
			return len(v) == 1 && v[0] == 20
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			c := &Chamber{
				Inner:      innerChamber(),
				Schedule:   &Schedule{Plan: []Kind{tc.kind}, SlowBy: 5 * time.Millisecond},
				OutputDims: 1,
			}
			start := time.Now()
			out, err := c.Execute(context.Background(), block())
			if tc.wantErr {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("err = %v, want ErrInjected", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !tc.checkVec(out) {
				t.Errorf("output = %v", out)
			}
			if tc.wantDelay > 0 && time.Since(start) < tc.wantDelay {
				t.Errorf("returned in %v, want ≥ %v", time.Since(start), tc.wantDelay)
			}
		})
	}
}

// A hang must respect context cancellation — that is the hook the engine's
// per-block deadline uses to reclaim the block.
func TestChamberHangHonorsContext(t *testing.T) {
	c := &Chamber{
		Inner:      innerChamber(),
		Schedule:   &Schedule{Plan: []Kind{Hang}, HangFor: 10 * time.Second},
		OutputDims: 1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Execute(ctx, block())
	if err == nil {
		t.Fatal("hung execution returned no error")
	}
	if time.Since(start) > time.Second {
		t.Errorf("hang outlived its context: %v", time.Since(start))
	}
}

// framedEchoWorker stands in for a gupt-worker on the binary wire: it
// echoes the hello and answers every request frame with one work-response
// frame carrying the output [42].
func framedEchoWorker(t *testing.T) net.Addr {
	t.Helper()
	reply, err := compman.AppendWorkResponseFrame(nil, &compman.WorkResponse{Output: []float64{42}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				hello := make([]byte, wireHelloLen)
				if _, err := io.ReadFull(r, hello); err != nil {
					return
				}
				if _, err := conn.Write(hello); err != nil {
					return
				}
				for {
					if _, err := readFrameUnit(r); err != nil {
						return
					}
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return l.Addr()
}

func TestProxyFaults(t *testing.T) {
	upstream := framedEchoWorker(t)
	proxy := &Proxy{
		Upstream: upstream.String(),
		Schedule: &ProtoSchedule{Plan: []ProtoFault{
			ProtoNone, ProtoCorrupt, ProtoTruncate, ProtoDisconnect,
		}},
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	conn, err := net.Dial("tcp", proxy.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))

	// The hello echo is bookkeeping and always passes through untouched.
	hello := []byte{compman.WireMagic, 'G', 'W', compman.WireVersion, '\n'}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	echo := make([]byte, len(hello))
	if _, err := io.ReadFull(r, echo); err != nil || !bytes.Equal(echo, hello) {
		t.Fatalf("hello echo = %q (%v), want %q", echo, err, hello)
	}

	request, err := compman.AppendWorkRequestFrame(nil, &compman.WorkRequest{Block: [][]float64{{1}}})
	if err != nil {
		t.Fatal(err)
	}
	send := func() ([]byte, error) {
		if _, err := conn.Write(request); err != nil {
			return nil, err
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		return readFrameUnit(r)
	}

	// Reply 1 passes through intact.
	clean, err := send()
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := compman.DecodeWorkResponseFrame(clean)
	if err != nil || len(resp.Output) != 1 || resp.Output[0] != 42 {
		t.Fatalf("clean reply corrupted: %x (%v)", clean, err)
	}

	// Reply 2 keeps its shape but fails its CRC.
	corrupt, err := send()
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != len(clean) {
		t.Errorf("corrupt frame is %d bytes, want the clean frame's %d", len(corrupt), len(clean))
	}
	if _, _, err := compman.DecodeWorkResponseFrame(corrupt); !errors.Is(err, compman.ErrWireFrame) {
		t.Fatalf("corrupt fault decoded: err = %v, want ErrWireFrame", err)
	}

	// Reply 3 declares half the payload under the original CRC.
	torn, err := send()
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) >= len(clean) {
		t.Errorf("truncated frame is %d bytes, not shorter than the clean %d", len(torn), len(clean))
	}
	if _, _, err := compman.DecodeWorkResponseFrame(torn); !errors.Is(err, compman.ErrWireFrame) {
		t.Fatalf("truncate fault decoded: err = %v, want ErrWireFrame", err)
	}

	// Reply 4 never arrives: the connection drops.
	if _, err = send(); err == nil {
		t.Fatal("disconnect fault did not sever the connection")
	}
}
