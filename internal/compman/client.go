package compman

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
)

// Client is the analyst-side computation-manager component: a thin,
// synchronized wrapper over the binary framed wire (see wire.go). It is
// safe for concurrent use; requests are serialized on the single
// connection.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	apiKey string // stamped onto every request that carries none
	wbuf   []byte // reused binary encode buffer
	rbuf   []byte // reused binary frame read buffer
}

// Dial connects to a computation-manager server and performs the wire
// handshake (see NewClient).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("compman: dial %s: %w", addr, err)
	}
	c, err := NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection, performing the connect-time
// handshake. A server on a retired wire version fails with ErrPeerTooOld,
// a garbled handshake with ErrWireNegotiation; on error the caller still
// owns the connection.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{conn: conn, r: bufio.NewReaderSize(conn, 64*1024)}
	if err := negotiateWire(conn, c.r); err != nil {
		return nil, err
	}
	return c, nil
}

// SetAPIKey attaches tenant credentials to every subsequent request. A
// tenancy-enabled server refuses requests without a valid key; a
// tenancy-off server ignores it.
func (c *Client) SetAPIKey(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.apiKey = key
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// QueryError is a server-refused operation, preserving the privacy budget
// the attempt consumed anyway. A query that aborted after its charge
// settled reports EpsilonCharged > 0 — the analyst paid for the failure
// (§6.2), and budget-tracking clients must account for it.
type QueryError struct {
	Msg            string
	EpsilonCharged float64
	// RetryAfterMillis, when positive, is the server's rate-limit backoff
	// hint: the rejection consumed zero ε and the request may be retried
	// after this many milliseconds.
	RetryAfterMillis int64
}

func (e *QueryError) Error() string { return e.Msg }

// roundTrip sends one request and decodes one response. Both buffers
// persist across calls, so steady-state framing allocates nothing.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.APIKey == "" && c.apiKey != "" {
		q := *req
		q.APIKey = c.apiKey
		req = &q
	}
	frame, err := AppendRequestFrame(c.wbuf[:0], req)
	if err != nil {
		return nil, fmt.Errorf("compman: encode: %w", err)
	}
	if _, err := c.conn.Write(frame); err != nil {
		return nil, fmt.Errorf("compman: send: %w", err)
	}
	c.wbuf = frame[:0]
	payload, err := readWireFrame(c.r, &c.rbuf)
	if err != nil {
		return nil, fmt.Errorf("compman: receive: %w", err)
	}
	resp, err := decodePayload(payload, wireMsgResponse, "response", decodeResponseBody)
	if err != nil {
		return nil, fmt.Errorf("compman: %w", err)
	}
	if !resp.OK {
		if resp.Error == "" {
			resp.Error = "unspecified server error"
		}
		return nil, &QueryError{Msg: resp.Error, EpsilonCharged: resp.EpsilonCharged, RetryAfterMillis: resp.RetryAfterMillis}
	}
	return resp, nil
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Request{Op: OpQuantum})
	return err
}

// Datasets lists the names registered on the server.
func (c *Client) Datasets() ([]string, error) {
	resp, err := c.roundTrip(&Request{Op: OpList})
	if err != nil {
		return nil, err
	}
	return resp.Datasets, nil
}

// Stats reads the server's activity counters.
func (c *Client) Stats() (ServerStats, error) {
	resp, err := c.roundTrip(&Request{Op: OpStats})
	if err != nil {
		return ServerStats{}, err
	}
	if resp.Stats == nil {
		return ServerStats{}, errors.New("compman: server returned no stats")
	}
	return *resp.Stats, nil
}

// RemainingBudget reads a dataset's unspent privacy budget.
func (c *Client) RemainingBudget(dataset string) (float64, error) {
	resp, err := c.roundTrip(&Request{Op: OpBudget, Dataset: dataset})
	if err != nil {
		return 0, err
	}
	return resp.Remaining, nil
}

// Query runs one differentially private computation. The request must have
// Op unset or OpQuery; all other fields are as documented on Request.
func (c *Client) Query(req *Request) (*Response, error) {
	q := *req
	q.Op = OpQuery
	return c.roundTrip(&q)
}

// RegisterDataset pushes a dataset to the server (the data-owner
// interface).
func (c *Client) RegisterDataset(spec *RegisterSpec) error {
	_, err := c.roundTrip(&Request{Op: OpRegister, Register: spec})
	return err
}

// Session runs a budget-distributed query batch (§5.2) against one
// dataset: the total ε splits across the queries in proportion to their
// noise scales and is charged atomically.
func (c *Client) Session(dataset string, spec *SessionSpec) ([]SessionResult, error) {
	resp, err := c.roundTrip(&Request{Op: OpSession, Dataset: dataset, Session: spec})
	if err != nil {
		return nil, err
	}
	return resp.Session, nil
}
