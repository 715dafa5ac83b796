package sandbox

import (
	"encoding/json"
	"fmt"
	"io"

	"gupt/internal/mathutil"
)

// Request is the message a subprocess chamber writes to the analysis app's
// stdin: the block of records to compute on. The app must treat this as its
// entire world — it has no other input channel.
type Request struct {
	Block [][]float64 `json:"block"`
}

// Response is the message the analysis app writes to stdout: either the
// output vector or an application-level error string.
type Response struct {
	Output []float64 `json:"output,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// WriteRequest encodes a block as a Request on w.
func WriteRequest(w io.Writer, block []mathutil.Vec) error {
	return requestOf(block).write(w)
}

// requestOf returns a Request whose Block aliases block's rows.
func requestOf(block []mathutil.Vec) *Request {
	req := &Request{Block: make([][]float64, len(block))}
	for i, r := range block {
		req.Block[i] = r
	}
	return req
}

// write encodes req on w. Block may alias shared rows: they are only read.
func (req *Request) write(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(req); err != nil {
		return fmt.Errorf("sandbox: encode request: %w", err)
	}
	return nil
}

// ReadRequest decodes a Request from r into rows.
func ReadRequest(r io.Reader) ([]mathutil.Vec, error) {
	var req Request
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("sandbox: decode request: %w", err)
	}
	rows := make([]mathutil.Vec, len(req.Block))
	for i, b := range req.Block {
		rows[i] = mathutil.Vec(b)
	}
	return rows, nil
}

// WriteResponse encodes output (or err, if non-nil) as a Response on w.
func WriteResponse(w io.Writer, output mathutil.Vec, err error) error {
	resp := Response{}
	if err != nil {
		resp.Error = err.Error()
	} else {
		resp.Output = output
	}
	if e := json.NewEncoder(w).Encode(resp); e != nil {
		return fmt.Errorf("sandbox: encode response: %w", e)
	}
	return nil
}

// ReadResponse decodes a Response from r, converting an application-level
// error string back into an error.
func ReadResponse(r io.Reader) (mathutil.Vec, error) {
	var resp Response
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		return nil, fmt.Errorf("sandbox: decode response: %w", err)
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("sandbox: app error: %s", resp.Error)
	}
	return mathutil.Vec(resp.Output), nil
}

// ServeApp is the main loop for an analysis app running inside a subprocess
// chamber: read one Request from in, run the program, write one Response to
// out. Program errors are reported in-band; transport errors are returned.
func ServeApp(in io.Reader, out io.Writer, run func(block []mathutil.Vec) (mathutil.Vec, error)) error {
	block, err := ReadRequest(in)
	if err != nil {
		return err
	}
	result, runErr := run(block)
	return WriteResponse(out, result, runErr)
}
