package compman

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gupt/internal/telemetry"
)

// frameServer is the accept side of the framed wire, shared by the Server
// and every Worker: one accept loop, one set of live connections, the hello
// on every connection, then one frame answered at a time until the peer
// leaves or close is called.
type frameServer struct {
	// open returns one connection's handler, once, after its hello. The
	// handler answers that connection's frames one at a time, so it may keep
	// state from frame to frame.
	open func() frameHandler
	// idle, when positive, drops a connection that sends nothing for this
	// long, bounding slow-loris style connection hoarding.
	idle  time.Duration
	conns *telemetry.Gauge // live connections; nil counts nothing
	logf  func(format string, args ...any)
	// prefix starts every log line and the accept error. The two sides'
	// texts differ beyond it only in closedErr, which serve returns after
	// close, and in writeText, the name of a failed response write.
	prefix    string
	closedErr error
	writeText string

	mu       sync.Mutex
	listener net.Listener
	live     map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// frameHandler answers one request payload by appending its response frame
// to dst. A body that fails to decode is the handler's to answer; a frame
// that fails to read (bad length or CRC) means the stream is out of sync
// and tears the connection down before the handler sees it.
type frameHandler func(payload, dst []byte) ([]byte, error)

// serve accepts connections on l until close is called. It blocks.
func (fs *frameServer) serve(l net.Listener) error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return fs.closedErr
	}
	fs.listener = l
	if fs.live == nil {
		fs.live = make(map[net.Conn]struct{})
	}
	fs.mu.Unlock()
	for {
		conn, err := l.Accept()
		fs.mu.Lock()
		if fs.closed {
			fs.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			fs.mu.Unlock()
			return fmt.Errorf("%saccept: %w", fs.prefix, err)
		}
		fs.live[conn] = struct{}{}
		fs.wg.Add(1)
		fs.mu.Unlock()
		fs.conns.Inc()
		go fs.serveConn(conn)
	}
}

// close stops accepting, closes live connections, and waits for their
// loops to return.
func (fs *frameServer) close() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return nil
	}
	fs.closed = true
	l := fs.listener
	for c := range fs.live {
		c.Close()
	}
	fs.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	fs.wg.Wait()
	return err
}

// addr returns the address serve is listening on, or nil before serve.
func (fs *frameServer) addr() net.Addr {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.listener == nil {
		return nil
	}
	return fs.listener.Addr()
}

// serveConn checks the hello, then answers frames one at a time. Both
// scratch buffers come from the shared pool once per connection and are
// reused for every message, so a steady stream allocates nothing for
// framing.
func (fs *frameServer) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		fs.mu.Lock()
		delete(fs.live, conn)
		fs.mu.Unlock()
		fs.conns.Dec()
		fs.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, 64*1024)
	// Connect-time handshake: anything but a current hello is dropped
	// without a reply — fail closed, § wire.go.
	fs.armIdle(conn)
	if err := sniffWire(conn, br); err != nil {
		if err != io.EOF {
			fs.logf(fs.prefix+"wire sniff: %v", err)
		}
		return
	}
	handle := fs.open()
	rbuf, wbuf := getWireBuf(), getWireBuf()
	defer putWireBuf(rbuf)
	defer putWireBuf(wbuf)
	for {
		fs.armIdle(conn)
		payload, err := readWireFrame(br, rbuf)
		if err != nil {
			if err != io.EOF {
				fs.logf(fs.prefix+"read frame: %v", err)
			}
			return
		}
		frame, err := handle(payload, (*wbuf)[:0])
		if err != nil {
			fs.logf(fs.prefix+"encode response: %v", err)
			return
		}
		if _, err := conn.Write(frame); err != nil {
			fs.logf(fs.prefix+fs.writeText+": %v", err)
			return
		}
		*wbuf = frame[:0]
	}
}

// armIdle restarts conn's idle deadline, if there is one.
func (fs *frameServer) armIdle(conn net.Conn) {
	if fs.idle > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(fs.idle))
	}
}
