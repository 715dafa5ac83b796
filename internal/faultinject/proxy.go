package faultinject

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Binary-wire layout facts, mirrored from internal/compman/wire.go (which
// imports this package from its chaos tests, so the dependency cannot run
// the other way). compman's wire tests pin these against the canonical
// constants so they cannot drift silently.
const (
	wireHelloLen       = 5
	wireFrameHeaderLen = 8
	maxWireFrame       = 64 << 20
)

// ProtoFault enumerates the wire-level faults a Proxy can inject into the
// worker protocol's reply frames.
type ProtoFault int

const (
	// ProtoNone relays the reply untouched.
	ProtoNone ProtoFault = iota
	// ProtoCorrupt flips every payload byte under the original header, so
	// the frame fails its CRC.
	ProtoCorrupt
	// ProtoTruncate forwards a frame whose header declares half the
	// payload but keeps the original CRC, so the receiver sees a short,
	// broken frame at once instead of waiting for bytes that never come.
	ProtoTruncate
	// ProtoDisconnect drops the client connection instead of replying —
	// a worker that died mid-exchange.
	ProtoDisconnect
	// ProtoStall delays the reply by StallFor before forwarding it.
	ProtoStall
	numProtoFaults int = iota
)

// String names the fault for logs and test output.
func (f ProtoFault) String() string {
	switch f {
	case ProtoNone:
		return "proto-none"
	case ProtoCorrupt:
		return "proto-corrupt"
	case ProtoTruncate:
		return "proto-truncate"
	case ProtoDisconnect:
		return "proto-disconnect"
	case ProtoStall:
		return "proto-stall"
	default:
		return fmt.Sprintf("protofault(%d)", int(f))
	}
}

// ProtoSchedule decides the fault for each successive reply, like Schedule
// but over the wire-fault kinds.
type ProtoSchedule struct {
	// Seed drives random decisions.
	Seed int64
	// Rates maps each fault to its per-reply probability; ignored when
	// Plan is set.
	Rates map[ProtoFault]float64
	// Plan scripts faults explicitly: reply i suffers Plan[i % len(Plan)].
	Plan []ProtoFault
	// StallFor is the ProtoStall delay; zero selects 50ms.
	StallFor time.Duration

	draws draws[ProtoFault]
}

func (s *ProtoSchedule) next() ProtoFault {
	return s.draws.next(s.Seed, s.Rates, s.Plan, numProtoFaults)
}

// Counts reports how many times each fault has been injected.
func (s *ProtoSchedule) Counts() map[ProtoFault]int { return s.draws.counts() }

func (s *ProtoSchedule) stallFor() time.Duration {
	if s.StallFor > 0 {
		return s.StallFor
	}
	return 50 * time.Millisecond
}

// Proxy is a chaos TCP proxy for the binary worker wire. It forwards
// requests to the upstream address verbatim and injects schedule-driven
// faults into the reply frames. Point a
// compman.WorkerPool at the proxy's address instead of the worker's to
// exercise the pool's redial/retry and the engine's substitution paths.
type Proxy struct {
	// Upstream is the real worker address. Required.
	Upstream string
	// Schedule drives the injection decisions. Required.
	Schedule *ProtoSchedule

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// until Close. It returns once the listener is accepting.
func (p *Proxy) Start(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("faultinject: proxy listen: %w", err)
	}
	p.mu.Lock()
	p.listener = l
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	p.wg.Add(1)
	go p.serve(l)
	return nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() net.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.listener == nil {
		return nil
	}
	return p.listener.Addr()
}

// Close stops the proxy and severs all live connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	l := p.listener
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) serve(l net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			p.handle(conn)
		}()
	}
}

// handle relays one client connection. Requests stream upstream untouched;
// replies pass through the fault schedule one CRC32C frame at a time. The
// upstream's hello echo is relayed verbatim: the handshake is connection
// bookkeeping, not a reply, and garbling it is the job of the directed
// fail-closed tests.
func (p *Proxy) handle(client net.Conn) {
	defer func() {
		client.Close()
		p.mu.Lock()
		delete(p.conns, client)
		p.mu.Unlock()
	}()
	upstream, err := net.Dial("tcp", p.Upstream)
	if err != nil {
		return
	}
	defer upstream.Close()

	// Requests: plain byte relay.
	go func() {
		_, _ = io.Copy(upstream, client)
		upstream.Close()
	}()

	r := bufio.NewReaderSize(upstream, 64*1024)
	hello := make([]byte, wireHelloLen)
	if _, err := io.ReadFull(r, hello); err != nil {
		return
	}
	if _, err := client.Write(hello); err != nil {
		return
	}
	for {
		unit, err := readFrameUnit(r)
		if err != nil {
			return
		}
		switch p.Schedule.next() {
		case ProtoNone:
			if _, err := client.Write(unit); err != nil {
				return
			}
		case ProtoCorrupt:
			if _, err := client.Write(corruptUnit(unit)); err != nil {
				return
			}
		case ProtoTruncate:
			if _, err := client.Write(truncateUnit(unit)); err != nil {
				return
			}
		case ProtoDisconnect:
			return
		case ProtoStall:
			time.Sleep(p.Schedule.stallFor())
			if _, err := client.Write(unit); err != nil {
				return
			}
		}
	}
}

// readFrameUnit reads one binary-wire frame — header plus payload — as a
// single reply unit, without validating its checksum (the proxy forwards
// whatever the worker sent; validation is the receiver's job).
func readFrameUnit(r *bufio.Reader) ([]byte, error) {
	hdr := make([]byte, wireFrameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxWireFrame {
		return nil, fmt.Errorf("faultinject: upstream frame length %d exceeds limit", n)
	}
	unit := make([]byte, wireFrameHeaderLen+int(n))
	copy(unit, hdr)
	if _, err := io.ReadFull(r, unit[wireFrameHeaderLen:]); err != nil {
		return nil, err
	}
	return unit, nil
}

// corruptUnit returns a same-shape frame whose payload bytes are all
// flipped under an unchanged header: a guaranteed CRC mismatch the
// receiver detects at once, not a stall.
func corruptUnit(unit []byte) []byte {
	out := append([]byte(nil), unit...)
	for i := wireFrameHeaderLen; i < len(out); i++ {
		out[i] ^= 0xFF
	}
	return out
}

// truncateUnit returns a torn frame the receiver detects immediately: the
// header declares half the payload but keeps the original checksum, so the
// length/CRC cross-check fails on arrival instead of the reader blocking
// for bytes that never come.
func truncateUnit(unit []byte) []byte {
	cut := (len(unit) - wireFrameHeaderLen) / 2
	out := make([]byte, wireFrameHeaderLen+cut)
	binary.LittleEndian.PutUint32(out[0:4], uint32(cut))
	copy(out[4:8], unit[4:8]) // original CRC: cannot match the shorter payload
	copy(out[wireFrameHeaderLen:], unit[wireFrameHeaderLen:wireFrameHeaderLen+cut])
	return out
}
