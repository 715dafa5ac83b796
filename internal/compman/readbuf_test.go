package compman

import (
	"bufio"
	"context"
	"io"
	"net"
	"testing"

	"gupt/internal/allocguard"
)

// Clients and pool connections read through a 64 KiB bufio.Reader. The
// reader sets only how many bytes one read syscall may fetch: readWireFrame
// copies every frame into its own buffer, so a reply larger than the
// reader still arrives whole.

// bigOutput is a 320 KiB reply body, five times the reader.
func bigOutput() []float64 {
	out := make([]float64, 40<<10)
	for i := range out {
		out[i] = float64(i) / 4
	}
	return out
}

func checkBigOutput(t *testing.T, got []float64) {
	t.Helper()
	want := bigOutput()
	if len(got) != len(want) {
		t.Fatalf("reply carried %d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// serveOneFrame answers the hello on conn, reads one request frame and
// writes the frame reply builds from its payload.
func serveOneFrame(conn net.Conn, reply func(payload []byte) ([]byte, error)) error {
	br := bufio.NewReader(conn)
	if err := sniffWire(conn, br); err != nil {
		return err
	}
	var buf []byte
	payload, err := readWireFrame(br, &buf)
	if err != nil {
		return err
	}
	frame, err := reply(payload)
	if err != nil {
		return err
	}
	_, err = conn.Write(frame)
	return err
}

func TestClientReadsFrameLargerThanItsBuffer(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	served := make(chan error, 1)
	go func() {
		defer sc.Close()
		served <- serveOneFrame(sc, func([]byte) ([]byte, error) {
			return AppendResponseFrame(nil, &Response{OK: true, Output: bigOutput()})
		})
	}()
	c, err := NewClient(cc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.roundTrip(&Request{Op: OpStats})
	if err != nil {
		t.Fatal(err)
	}
	checkBigOutput(t, resp.Output)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

func TestWorkerConnReadsFrameLargerThanItsBuffer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		served <- serveOneFrame(conn, func(payload []byte) ([]byte, error) {
			req, err := decodePayload(payload, wireMsgWorkRequest, "work request", decodeWorkRequestBody)
			if err != nil {
				return nil, err
			}
			return AppendWorkResponseFrame(nil, &WorkResponse{Output: bigOutput(), TraceID: req.Spec.TraceID})
		})
	}()
	pool, err := NewWorkerPool([]string{l.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	req := sampleWorkRequest()
	frame, err := AppendWorkRequestFrame(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	var resp WorkResponse
	if err := pool.hosts[0].do(context.Background(), frame, req.Spec.TraceID, &resp); err != nil {
		t.Fatal(err)
	}
	checkBigOutput(t, resp.Output)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// A connection's read buffer is most of what a client costs. At 1 MiB per
// Client, a harness holding a few clients carried megabytes of buffers it
// never filled; 64 KiB is what the server and the worker read through.
func TestNewClientAllocations(t *testing.T) {
	allocguard.SkipUnderRace(t, "the race detector instruments the pipe and the handshake")
	run := func() {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			var hello [WireHelloLen]byte
			if _, err := io.ReadFull(sc, hello[:]); err == nil {
				_, _ = sc.Write(wireHello(WireVersion))
			}
		}()
		if _, err := NewClient(cc); err != nil {
			t.Error(err)
		}
		cc.Close()
		sc.Close()
		<-done
	}
	// Measured 65.7 KiB: the 64 KiB reader, the pipe and the handshake. With
	// a 1 MiB reader it was 1,050,309 bytes.
	if bytes := allocguard.Bytes(run); bytes > 96<<10 {
		t.Errorf("NewClient over a pipe allocates %d bytes, want <= %d", bytes, 96<<10)
	}
}
