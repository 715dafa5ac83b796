package compman

// Binary wire protocol. The original compman wire was newline-delimited
// JSON; encode/decode dominated small queries and capped block fan-out
// (every one of a query's ℓ blocks crosses the manager↔worker path). This
// file replaces it with a length-prefixed binary framing reusing the
// ledger's CRC32C frame idiom — and its fuzz-everything discipline. The
// JSON wire shipped for one release as a negotiated fallback and has now
// been retired: version 0 is rejected at the handshake with ErrPeerTooOld,
// and there is no negotiate-down path. (The JSON *line* codecs in
// protocol.go remain — they serve the admin HTTP surface, not the wire.)
//
// Negotiation. A client opens with a 5-byte hello line
//
//	| 0xB1 | 'G' | 'W' | version | '\n' |
//
// The magic byte 0xB1 can never begin a JSON value, so a peer that opens
// with anything else is identified as a pre-binary (JSON-only) release and
// refused with ErrPeerTooOld. The server answers the hello with its own
// hello carrying min(client version, server version); both sides then
// speak frames. Anything else — a truncated hello, a garbled echo, an
// upward version, a version-0 hello — fails closed: the connection is
// dropped rather than risking frame misparses.
//
// Framing (after negotiation), little-endian, as in internal/ledger:
//
//	| length uint32 | crc32c(payload) uint32 | payload (length bytes) |
//
// payload:
//
//	| kind uint8 | message body |
//
// Body grammar: strings are uint32 length + bytes (bounded); float64s are
// IEEE bits; ints are two's-complement int64; optional sub-messages carry
// a presence byte; float64 slices and row matrices are encoded
// contiguously (count + packed 8-byte values) so a WorkSpec/WorkResponse
// round-trip costs O(1) allocations instead of one per element. Decoders
// bound every allocation by the bytes actually present in the frame and
// never panic on arbitrary input (see FuzzWireEquivalence).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"unicode/utf8"

	"gupt/internal/mathutil"
	"gupt/internal/telemetry"
)

// Wire versions. Version 0 was the newline-delimited JSON wire, retired
// after its one-release fallback window. Version 1 was the first CRC32C
// binary framing; it was retired in the same release that retired version
// 0, when the Response body grew the cache-hit flag (a version-1 decoder
// would misparse the new frames). Peers offering either retired version
// are refused with ErrPeerTooOld.
//
// Version 3 (PR 8, multi-tenancy) extends version 2 with OPTIONAL TAILS
// rather than a breaking relayout: a request may end with the API key
// string, a response with the resolved tenant id + retry-after hint.
// Decoders read the tail only when payload bytes remain past the version-2
// grammar, so a version-2 frame decodes unchanged under a version-3
// decoder and version 2 stays a live negotiation target — old clients keep
// working against single-tenant (tenancy-off) servers with no flag day. A
// tenancy-ON server rejects version-2 clients at admission (they cannot
// present a key), not at the handshake.
//
// Version 4 (PR 9, deadline-aware scheduling) appends the client's query
// deadline budget (DeadlineMillis) to the request tail, after the API key.
// It cannot ride the version-3 tail in place — decodePayload rejects
// trailing bytes, so a version-3 server would refuse extended frames —
// hence the bump. The response grammar is unchanged; versions 2 and 3
// remain live negotiation targets and their frames decode unchanged under
// a version-4 decoder (each tail field is read only when bytes remain).
const (
	WireVersionJSON    uint8 = 0 // retired; named only to reject it by name
	WireVersionBinary1 uint8 = 1 // retired: pre-cache-hit binary framing
	WireVersionBinary  uint8 = 2 // still negotiable: pre-tenancy framing
	WireVersionBinary3 uint8 = 3 // still negotiable: tenant tails on request/response
	WireVersionBinary4 uint8 = 4 // current: request tail gains the deadline budget
	// LatestWireVersion is what Dial and NewWorkerPool negotiate for.
	LatestWireVersion = WireVersionBinary4
)

// WireMagic is the first byte of a binary-wire hello. It is outside every
// byte a JSON text can start with, which is what makes connect-time
// sniffing unambiguous. internal/faultinject's chaos proxy sniffs it too.
const WireMagic byte = 0xB1

// WireHelloLen is the exact length of a hello line.
const WireHelloLen = 5

// WireFrameHeaderLen is the length of a frame header (uint32 payload
// length + uint32 CRC32C), exported for frame-aware intermediaries like
// internal/faultinject's chaos proxy.
const WireFrameHeaderLen = wireFrameHeaderLen

const (
	wireMark0 byte = 'G'
	wireMark1 byte = 'W'

	wireFrameHeaderLen = 8
	// MaxWireFrame bounds one frame's payload — the binary analogue of the
	// JSON scanner's line cap, and the bound on decode allocation.
	MaxWireFrame = 64 << 20
	// maxWireString bounds any single string field.
	maxWireString = 1 << 20
	// maxNegotiationLine bounds the hello-reply line a client will buffer
	// before declaring the negotiation garbled.
	maxNegotiationLine = 1 << 16
)

// Message kinds (the payload's first byte).
const (
	wireMsgRequest      byte = 1
	wireMsgResponse     byte = 2
	wireMsgWorkRequest  byte = 3
	wireMsgWorkResponse byte = 4
)

var wireCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrWireNegotiation reports a connect-time handshake that could not be
// completed safely. Negotiation failures are terminal for the connection:
// proceeding after a garbled hello risks misparsing frames as JSON or vice
// versa, so both ends fail closed.
var ErrWireNegotiation = errors.New("compman: wire negotiation failed")

// ErrWireFrame reports a frame whose length, checksum or grammar is
// invalid. Like a corrupted JSON worker reply, it means the stream can no
// longer be trusted to be in sync.
var ErrWireFrame = errors.New("compman: invalid wire frame")

// ErrPeerTooOld reports a handshake with a peer that only speaks a retired
// wire — the version-0 JSON wire or the version-1 pre-cache-hit binary
// framing. It is deliberately a distinct error from ErrWireNegotiation (a
// garbled or tampered handshake): the operator's fix for a too-old peer is
// an upgrade, not a network investigation, and pool construction surfaces
// it by name so a stale worker build is diagnosed from the error alone.
var ErrPeerTooOld = errors.New("compman: peer speaks only a retired wire version; upgrade the peer to this release")

// wireBufPool recycles encode/decode scratch across connections. Each
// connection checks a buffer out once and reuses it for every message, so
// the steady-state hot path allocates nothing for framing.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getWireBuf() *[]byte  { return wireBufPool.Get().(*[]byte) }
func putWireBuf(b *[]byte) { wireBufPool.Put(b) }

// wireHello returns the 5-byte hello line for a version.
func wireHello(version uint8) []byte {
	return []byte{WireMagic, wireMark0, wireMark1, version, '\n'}
}

// parseWireHello validates a hello (or hello echo) line. A structurally
// valid hello offering a retired version (0 or 1) is distinguished from
// garbage: it is a well-built peer that is merely too old, not a corrupted
// stream.
func parseWireHello(line []byte) (uint8, error) {
	if len(line) != WireHelloLen || line[0] != WireMagic ||
		line[1] != wireMark0 || line[2] != wireMark1 || line[4] != '\n' {
		return 0, fmt.Errorf("%w: garbled hello %q", ErrWireNegotiation, clipForError(line))
	}
	if line[3] < WireVersionBinary {
		return 0, ErrPeerTooOld
	}
	return line[3], nil
}

// clipForError bounds raw wire bytes quoted into an error message.
func clipForError(b []byte) []byte {
	if len(b) > 64 {
		return b[:64]
	}
	return b
}

// readLineBounded reads one newline-terminated line of at most max bytes.
// Unlike bufio.Reader.ReadBytes it refuses to buffer unbounded garbage
// from a peer that never sends the delimiter.
func readLineBounded(r *bufio.Reader, max int) ([]byte, error) {
	line := make([]byte, 0, 64)
	for {
		b, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		line = append(line, b)
		if b == '\n' {
			return line, nil
		}
		if len(line) >= max {
			return nil, fmt.Errorf("line exceeds %d bytes without terminator", max)
		}
	}
}

// negotiateWire performs the client side of the handshake on a fresh
// connection. want is the highest version the caller speaks; the result is
// the negotiated version. A reply that is not a valid hello echo fails
// closed: ErrPeerTooOld when the peer is recognizably a pre-binary JSON
// release (it echoed our hello as a malformed-JSON error line, or offered
// version 0), ErrWireNegotiation for anything garbled.
func negotiateWire(conn net.Conn, r *bufio.Reader, want uint8) (uint8, error) {
	if want < WireVersionBinary {
		return 0, fmt.Errorf("%w: wire version %d is retired", ErrWireNegotiation, want)
	}
	if want > LatestWireVersion {
		want = LatestWireVersion
	}
	if _, err := conn.Write(wireHello(want)); err != nil {
		return 0, fmt.Errorf("%w: sending hello: %v", ErrWireNegotiation, err)
	}
	line, err := readLineBounded(r, maxNegotiationLine)
	if err != nil {
		return 0, fmt.Errorf("%w: reading hello reply: %v", ErrWireNegotiation, err)
	}
	switch line[0] {
	case WireMagic:
		v, err := parseWireHello(line)
		if err != nil {
			return 0, err
		}
		if v > want {
			// A server must negotiate down, never up; an upward echo means
			// the bytes were tampered with or desynchronized.
			return 0, fmt.Errorf("%w: server echoed version %d above offered %d", ErrWireNegotiation, v, want)
		}
		return v, nil
	case '{':
		// A pre-binary JSON server read the hello as a malformed JSON line
		// and answered with an error response. The fallback window is over:
		// identify the peer by name and refuse the connection.
		return 0, ErrPeerTooOld
	default:
		return 0, fmt.Errorf("%w: unrecognized hello reply %q", ErrWireNegotiation, clipForError(line))
	}
}

// sniffWire performs the server side of the handshake on a just-accepted
// connection: read the hello, echo the negotiated-down version. A first
// byte that is not the wire magic means a pre-binary JSON client —
// ErrPeerTooOld, which the server answers with one terminal JSON error
// line so the legacy client sees the reason instead of a silent hangup.
// A magic byte followed by a garbled hello is a terminal error.
func sniffWire(conn net.Conn, r *bufio.Reader, maxVersion uint8) (uint8, error) {
	first, err := r.Peek(1)
	if err != nil {
		return 0, err
	}
	if first[0] != WireMagic {
		return 0, ErrPeerTooOld
	}
	hello := make([]byte, WireHelloLen)
	if _, err := io.ReadFull(r, hello); err != nil {
		return 0, fmt.Errorf("%w: reading hello: %v", ErrWireNegotiation, err)
	}
	v, err := parseWireHello(hello)
	if err != nil {
		return 0, err
	}
	if v > maxVersion {
		v = maxVersion
	}
	if _, err := conn.Write(wireHello(v)); err != nil {
		return 0, fmt.Errorf("%w: sending hello echo: %v", ErrWireNegotiation, err)
	}
	return v, nil
}

// readWireFrame reads one frame's payload into *buf (grown as needed and
// reused across calls) and returns it. io.EOF surfaces untouched only at a
// clean frame boundary; a stream ending mid-frame is ErrUnexpectedEOF.
func readWireFrame(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	var hdr [wireFrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxWireFrame {
		return nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrWireFrame, n)
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if got := crc32.Checksum(payload, wireCRCTable); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrWireFrame, got, want)
	}
	return payload, nil
}

// --- encoder ---

// wireEncoder builds one frame in place: the header is reserved up front
// and back-filled by finishFrame, so a message is encoded with zero copies
// into a caller-owned (usually pooled) buffer.
type wireEncoder struct {
	b   []byte
	err error
}

func newFrameEncoder(buf []byte) *wireEncoder {
	buf = append(buf[:0], make([]byte, wireFrameHeaderLen)...)
	return &wireEncoder{b: buf}
}

func (e *wireEncoder) failf(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// finishFrame back-fills the length and CRC header and returns the
// complete frame.
func (e *wireEncoder) finishFrame() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	payload := e.b[wireFrameHeaderLen:]
	if len(payload) > MaxWireFrame {
		return nil, fmt.Errorf("%w: encoded payload %d exceeds frame limit", ErrWireFrame, len(payload))
	}
	binary.LittleEndian.PutUint32(e.b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.b[4:8], crc32.Checksum(payload, wireCRCTable))
	return e.b, nil
}

func (e *wireEncoder) u8(v byte)     { e.b = append(e.b, v) }
func (e *wireEncoder) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *wireEncoder) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *wireEncoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *wireEncoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *wireEncoder) boolb(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *wireEncoder) str(s string) {
	if len(s) > maxWireString {
		e.failf("%w: string field is %d bytes, exceeds the %d-byte limit", ErrWireFrame, len(s), maxWireString)
		return
	}
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *wireEncoder) strs(ss []string) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// f64s encodes a float64 slice contiguously: count, then packed IEEE bits.
func (e *wireEncoder) f64s(xs []float64) {
	e.u32(uint32(len(xs)))
	off := len(e.b)
	e.b = append(e.b, make([]byte, 8*len(xs))...)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(e.b[off+8*i:], math.Float64bits(x))
	}
}

func (e *wireEncoder) ints(xs []int) {
	e.u32(uint32(len(xs)))
	for _, x := range xs {
		e.i64(int64(x))
	}
}

func (e *wireEncoder) ranges(rs []RangeSpec) {
	e.u32(uint32(len(rs)))
	for _, r := range rs {
		e.f64(r.Lo)
		e.f64(r.Hi)
	}
}

// matrix encodes [][]float64. The uniform case — every row the same width,
// which is every engine block and every registered table — is laid out as
// one contiguous run of rows*cols values so the decoder can rebuild it
// with two allocations total. Ragged inputs fall back to per-row encoding.
func (e *wireEncoder) matrix(rows [][]float64) {
	uniform := true
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
		for _, r := range rows[1:] {
			if len(r) != cols {
				uniform = false
				break
			}
		}
	}
	if uniform {
		e.u8(1)
		e.u32(uint32(len(rows)))
		e.u32(uint32(cols))
		off := len(e.b)
		e.b = append(e.b, make([]byte, 8*len(rows)*cols)...)
		for i, r := range rows {
			base := off + 8*i*cols
			for j, x := range r {
				binary.LittleEndian.PutUint64(e.b[base+8*j:], math.Float64bits(x))
			}
		}
		return
	}
	e.u8(0)
	e.u32(uint32(len(rows)))
	for _, r := range rows {
		e.f64s(r)
	}
}

// --- decoder ---

// wireDecoder consumes little-endian fields from a frame payload, latching
// the first error instead of panicking on short or hostile input. Every
// count is validated against the bytes actually remaining before any
// allocation, so a forged header cannot force a large allocation.
type wireDecoder struct {
	b   []byte
	err error
}

func (d *wireDecoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *wireDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < n {
		d.failf("%w: truncated payload", ErrWireFrame)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *wireDecoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *wireDecoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *wireDecoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *wireDecoder) i64() int64   { return int64(d.u64()) }
func (d *wireDecoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *wireDecoder) intf() int    { return int(d.i64()) }

func (d *wireDecoder) boolb() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.failf("%w: boolean byte out of range", ErrWireFrame)
		return false
	}
}

// count reads a collection count and rejects any value the remaining bytes
// cannot possibly satisfy, given each element needs at least min bytes.
func (d *wireDecoder) count(min int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if min > 0 && uint64(n)*uint64(min) > uint64(len(d.b)) {
		d.failf("%w: count %d exceeds payload", ErrWireFrame, n)
		return 0
	}
	return int(n)
}

func (d *wireDecoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxWireString {
		d.failf("%w: string length %d exceeds limit", ErrWireFrame, n)
		return ""
	}
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	if !utf8.Valid(b) {
		// The JSON wire can never deliver invalid UTF-8 (encoding/json
		// coerces it); rejecting it here keeps the two wires semantically
		// identical — see FuzzWireEquivalence.
		d.failf("%w: string field is not valid UTF-8", ErrWireFrame)
		return ""
	}
	return string(b)
}

func (d *wireDecoder) strs() []string {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// f64s decodes a contiguous float64 slice in one allocation.
func (d *wireDecoder) f64s() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	raw := d.take(8 * n)
	if raw == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

func (d *wireDecoder) ints() []int {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.intf()
	}
	return out
}

func (d *wireDecoder) rangesf() []RangeSpec {
	n := d.count(16)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]RangeSpec, n)
	for i := range out {
		out[i].Lo = d.f64()
		out[i].Hi = d.f64()
	}
	return out
}

// matrix decodes [][]float64. Uniform matrices share one contiguous
// backing array; all size arithmetic is done in uint64 and bounded by the
// payload before allocating.
func (d *wireDecoder) matrix() [][]float64 {
	switch d.u8() {
	case 1:
		rows, cols, raw := d.uniformCells()
		if rows == 0 {
			return nil
		}
		out := make([][]float64, rows)
		if cols == 0 {
			return out
		}
		backing := make([]float64, rows*cols)
		for i := range backing {
			backing[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		for i := range out {
			out[i] = backing[uint64(i)*cols : uint64(i+1)*cols]
		}
		return out
	case 0:
		n := d.count(4)
		if d.err != nil || n == 0 {
			return nil
		}
		out := make([][]float64, n)
		for i := range out {
			out[i] = d.f64s()
		}
		return out
	default:
		d.failf("%w: matrix layout byte out of range", ErrWireFrame)
		return nil
	}
}

// uniformCells reads a uniform matrix's shape, bounded by the payload before
// anything is allocated, and takes its raw little-endian cells. rows is 0 on
// any error and for an empty matrix.
func (d *wireDecoder) uniformCells() (rows, cols uint64, raw []byte) {
	rows, cols = uint64(d.u32()), uint64(d.u32())
	if d.err != nil {
		return 0, 0, nil
	}
	// Divided, not multiplied: rows*cols*8 can wrap uint64 to something small.
	if cols != 0 && rows > uint64(len(d.b))/(8*cols) {
		d.failf("%w: matrix %dx%d exceeds payload", ErrWireFrame, rows, cols)
		return 0, 0, nil
	}
	return rows, cols, d.take(int(8 * rows * cols))
}

// matrixInto is matrix for the worker's serve loop: a uniform matrix — every
// engine block — is decoded straight into buf's recycled storage as the
// []mathutil.Vec a chamber takes, every header rewritten with its capacity
// cut (mathutil.RowBuf). A ragged one is rare and decoded fresh.
func (d *wireDecoder) matrixInto(buf *mathutil.RowBuf) []mathutil.Vec {
	if len(d.b) == 0 || d.b[0] != 1 {
		ragged := d.matrix()
		out := make([]mathutil.Vec, len(ragged))
		for i, r := range ragged {
			out[i] = r
		}
		return out
	}
	d.u8()
	rows, cols, raw := d.uniformCells()
	out := buf.Grid(int(rows), int(cols))
	for i, r := range out {
		base := raw[8*i*int(cols):]
		for j := range r {
			r[j] = math.Float64frombits(binary.LittleEndian.Uint64(base[8*j:]))
		}
	}
	return out
}

// --- message bodies ---

func encodeProgramSpec(e *wireEncoder, ps *ProgramSpec) {
	e.str(ps.Type)
	e.i64(int64(ps.Col))
	e.i64(int64(ps.ColB))
	e.f64(ps.P)
	e.f64(ps.Lo)
	e.f64(ps.Hi)
	e.i64(int64(ps.Bins))
	e.i64(int64(ps.K))
	e.i64(int64(ps.FeatureDims))
	e.i64(int64(ps.LabelCol))
	e.i64(int64(ps.Iters))
	e.f64(ps.LearnRate)
	e.i64(ps.Seed)
	e.str(ps.Path)
	e.strs(ps.Args)
	e.i64(int64(ps.OutputDims))
}

func decodeProgramSpec(d *wireDecoder) ProgramSpec {
	return ProgramSpec{
		Type:        d.str(),
		Col:         d.intf(),
		ColB:        d.intf(),
		P:           d.f64(),
		Lo:          d.f64(),
		Hi:          d.f64(),
		Bins:        d.intf(),
		K:           d.intf(),
		FeatureDims: d.intf(),
		LabelCol:    d.intf(),
		Iters:       d.intf(),
		LearnRate:   d.f64(),
		Seed:        d.i64(),
		Path:        d.str(),
		Args:        d.strs(),
		OutputDims:  d.intf(),
	}
}

func encodeRequestBody(e *wireEncoder, req *Request, version uint8) {
	e.str(string(req.Op))
	e.str(req.Dataset)
	e.boolb(req.Program != nil)
	if req.Program != nil {
		encodeProgramSpec(e, req.Program)
	}
	e.str(req.Mode)
	e.ranges(req.OutputRanges)
	e.ranges(req.InputRanges)
	e.boolb(req.Translate != nil)
	if req.Translate != nil {
		e.ints(req.Translate.InputDim)
		e.f64s(req.Translate.Scale)
		e.f64s(req.Translate.Offset)
	}
	e.f64(req.Epsilon)
	e.boolb(req.Accuracy != nil)
	if req.Accuracy != nil {
		e.f64(req.Accuracy.Rho)
		e.f64(req.Accuracy.Confidence)
	}
	e.boolb(req.Register != nil)
	if req.Register != nil {
		e.str(req.Register.Name)
		e.matrix(req.Register.Rows)
		e.strs(req.Register.Columns)
		e.f64(req.Register.TotalBudget)
		e.ranges(req.Register.Ranges)
		e.f64(req.Register.AgedFraction)
		e.i64(req.Register.Seed)
	}
	e.boolb(req.Session != nil)
	if req.Session != nil {
		e.f64(req.Session.TotalEpsilon)
		e.u32(uint32(len(req.Session.Queries)))
		for i := range req.Session.Queries {
			q := &req.Session.Queries[i]
			encodeProgramSpec(e, &q.Program)
			e.ranges(q.OutputRanges)
			e.i64(int64(q.BlockSize))
			e.i64(int64(q.Gamma))
			e.i64(q.Seed)
		}
	}
	e.i64(int64(req.BlockSize))
	e.i64(int64(req.Gamma))
	e.boolb(req.AutoBlockSize)
	e.i64(req.Seed)
	e.i64(req.QuantumMillis)
	e.boolb(req.UserLevel)
	e.i64(int64(req.UserColumn))
	e.f64(req.PercentileLow)
	e.f64(req.PercentileHigh)
	if version >= WireVersionBinary3 {
		// Version-3 tail. On a version-2 connection the key is simply not
		// sent — the tenancy-off server never asks for it.
		e.str(req.APIKey)
	}
	if version >= WireVersionBinary4 {
		// Version-4 tail: the client's deadline budget for the scheduler.
		// On an older connection it is simply not sent — the query runs
		// without a client deadline, exactly the pre-scheduler behavior.
		e.i64(req.DeadlineMillis)
	}
}

func decodeRequestBody(d *wireDecoder) *Request {
	req := &Request{
		Op:      Op(d.str()),
		Dataset: d.str(),
	}
	if d.boolb() {
		ps := decodeProgramSpec(d)
		req.Program = &ps
	}
	req.Mode = d.str()
	req.OutputRanges = d.rangesf()
	req.InputRanges = d.rangesf()
	if d.boolb() {
		req.Translate = &TranslateSpec{
			InputDim: d.ints(),
			Scale:    d.f64s(),
			Offset:   d.f64s(),
		}
	}
	req.Epsilon = d.f64()
	if d.boolb() {
		req.Accuracy = &AccuracySpec{Rho: d.f64(), Confidence: d.f64()}
	}
	if d.boolb() {
		req.Register = &RegisterSpec{
			Name:         d.str(),
			Rows:         d.matrix(),
			Columns:      d.strs(),
			TotalBudget:  d.f64(),
			Ranges:       d.rangesf(),
			AgedFraction: d.f64(),
			Seed:         d.i64(),
		}
	}
	if d.boolb() {
		s := &SessionSpec{TotalEpsilon: d.f64()}
		// A SessionQuery encodes to well over 100 bytes; 32 is a safe
		// floor that still rejects forged counts before allocation.
		n := d.count(32)
		if d.err == nil && n > 0 {
			s.Queries = make([]SessionQuery, n)
			for i := range s.Queries {
				s.Queries[i] = SessionQuery{
					Program:      decodeProgramSpec(d),
					OutputRanges: d.rangesf(),
					BlockSize:    d.intf(),
					Gamma:        d.intf(),
					Seed:         d.i64(),
				}
			}
		}
		req.Session = s
	}
	req.BlockSize = d.intf()
	req.Gamma = d.intf()
	req.AutoBlockSize = d.boolb()
	req.Seed = d.i64()
	req.QuantumMillis = d.i64()
	req.UserLevel = d.boolb()
	req.UserColumn = d.intf()
	req.PercentileLow = d.f64()
	req.PercentileHigh = d.f64()
	if d.err == nil && len(d.b) > 0 {
		// Version-3 optional tail; absent on version-2 frames. A PARTIAL
		// tail still latches a decode error through str(), so truncation
		// inside the tail is a frame error, not a silent downgrade.
		req.APIKey = d.str()
	}
	if d.err == nil && len(d.b) > 0 {
		// Version-4 optional tail; absent on version-2/3 frames.
		req.DeadlineMillis = d.i64()
	}
	return req
}

func encodeResponseBody(e *wireEncoder, resp *Response, version uint8) {
	e.boolb(resp.OK)
	e.str(resp.Error)
	e.str(resp.TraceID)
	e.f64s(resp.Output)
	e.f64(resp.EpsilonSpent)
	e.ranges(resp.EffectiveRanges)
	e.i64(int64(resp.NumBlocks))
	e.i64(int64(resp.BlockSize))
	e.i64(int64(resp.FailedBlocks))
	e.f64(resp.EpsilonCharged)
	e.boolb(resp.CacheHit)
	e.f64(resp.Remaining)
	e.strs(resp.Datasets)
	e.boolb(resp.Stats != nil)
	if resp.Stats != nil {
		s := resp.Stats
		e.i64(s.QueriesOK)
		e.i64(s.QueriesFailed)
		e.i64(s.BudgetRefusals)
		e.i64(s.QueriesAborted)
		e.i64(s.QueriesDegraded)
		e.i64(s.BlocksSubstituted)
		e.i64(s.QueryRetries)
		e.i64(s.TotalQueryMillis)
	}
	e.u32(uint32(len(resp.Session)))
	for i := range resp.Session {
		r := &resp.Session[i]
		e.f64s(r.Output)
		e.f64(r.EpsilonSpent)
		e.str(r.Error)
		e.i64(int64(r.FailedBlocks))
	}
	if version >= WireVersionBinary3 {
		// Version-3 tail: the resolved tenant id (echoed so clients can
		// confirm which principal was billed) and the retry-after hint for
		// rate-limit rejections. A version-2 client never sees either.
		e.str(resp.Tenant)
		e.i64(resp.RetryAfterMillis)
	}
}

func decodeResponseBody(d *wireDecoder) *Response {
	resp := &Response{
		OK:              d.boolb(),
		Error:           d.str(),
		TraceID:         d.str(),
		Output:          d.f64s(),
		EpsilonSpent:    d.f64(),
		EffectiveRanges: d.rangesf(),
		NumBlocks:       d.intf(),
		BlockSize:       d.intf(),
		FailedBlocks:    d.intf(),
		EpsilonCharged:  d.f64(),
		CacheHit:        d.boolb(),
		Remaining:       d.f64(),
		Datasets:        d.strs(),
	}
	if d.boolb() {
		resp.Stats = &ServerStats{
			QueriesOK:         d.i64(),
			QueriesFailed:     d.i64(),
			BudgetRefusals:    d.i64(),
			QueriesAborted:    d.i64(),
			QueriesDegraded:   d.i64(),
			BlocksSubstituted: d.i64(),
			QueryRetries:      d.i64(),
			TotalQueryMillis:  d.i64(),
		}
	}
	// A SessionResult is at least 24 bytes on the wire.
	if n := d.count(24); d.err == nil && n > 0 {
		resp.Session = make([]SessionResult, n)
		for i := range resp.Session {
			resp.Session[i] = SessionResult{
				Output:       d.f64s(),
				EpsilonSpent: d.f64(),
				Error:        d.str(),
				FailedBlocks: d.intf(),
			}
		}
	}
	if d.err == nil && len(d.b) > 0 {
		// Version-3 optional tail; absent on version-2 frames.
		resp.Tenant = d.str()
		resp.RetryAfterMillis = d.i64()
	}
	return resp
}

func encodeWorkRequestBody(e *wireEncoder, req *WorkRequest) {
	encodeProgramSpec(e, &req.Spec.Program)
	e.i64(req.Spec.QuantumMillis)
	e.str(req.Spec.TraceID)
	e.matrix(req.Block)
}

func decodeWorkSpec(d *wireDecoder) WorkSpec {
	return WorkSpec{
		Program:       decodeProgramSpec(d),
		QuantumMillis: d.i64(),
		TraceID:       d.str(),
	}
}

func decodeWorkRequestBody(d *wireDecoder) *WorkRequest {
	return &WorkRequest{Spec: decodeWorkSpec(d), Block: d.matrix()}
}

func encodeWorkResponseBody(e *wireEncoder, resp *WorkResponse) {
	e.f64s(resp.Output)
	e.str(resp.Error)
	e.str(resp.TraceID)
	e.u32(uint32(len(resp.Spans)))
	for i := range resp.Spans {
		s := &resp.Spans[i]
		e.str(s.Stage)
		e.str(s.Status)
		e.f64(s.Millis)
	}
}

func decodeWorkResponseBody(d *wireDecoder) *WorkResponse {
	resp := &WorkResponse{
		Output:  d.f64s(),
		Error:   d.str(),
		TraceID: d.str(),
	}
	// A RemoteSpan is at least 16 bytes on the wire.
	if n := d.count(16); d.err == nil && n > 0 {
		resp.Spans = make([]telemetry.RemoteSpan, n)
		for i := range resp.Spans {
			resp.Spans[i] = telemetry.RemoteSpan{
				Stage:  d.str(),
				Status: d.str(),
				Millis: d.f64(),
			}
		}
	}
	return resp
}

// --- framed message entry points ---

// AppendRequestFrame appends the framed binary encoding of req to dst and
// returns the extended slice, at the latest wire version. dst[:0] of a
// pooled buffer makes this allocation-free in steady state.
func AppendRequestFrame(dst []byte, req *Request) ([]byte, error) {
	return AppendRequestFrameV(dst, req, LatestWireVersion)
}

// AppendRequestFrameV encodes at an explicitly negotiated wire version:
// version 2 omits the tenant tail (for pre-tenancy servers), version 3
// carries it. Versions below 2 are retired and refused.
func AppendRequestFrameV(dst []byte, req *Request, version uint8) ([]byte, error) {
	if version < WireVersionBinary {
		return nil, fmt.Errorf("%w: cannot encode retired wire version %d", ErrWireFrame, version)
	}
	e := newFrameEncoder(dst)
	e.u8(wireMsgRequest)
	encodeRequestBody(e, req, version)
	return e.finishFrame()
}

// AppendResponseFrame appends the framed binary encoding of resp to dst,
// at the latest wire version.
func AppendResponseFrame(dst []byte, resp *Response) ([]byte, error) {
	return AppendResponseFrameV(dst, resp, LatestWireVersion)
}

// AppendResponseFrameV encodes at an explicitly negotiated wire version;
// see AppendRequestFrameV.
func AppendResponseFrameV(dst []byte, resp *Response, version uint8) ([]byte, error) {
	if version < WireVersionBinary {
		return nil, fmt.Errorf("%w: cannot encode retired wire version %d", ErrWireFrame, version)
	}
	e := newFrameEncoder(dst)
	e.u8(wireMsgResponse)
	encodeResponseBody(e, resp, version)
	return e.finishFrame()
}

// AppendWorkRequestFrame appends the framed binary encoding of req to dst.
func AppendWorkRequestFrame(dst []byte, req *WorkRequest) ([]byte, error) {
	e := newFrameEncoder(dst)
	e.u8(wireMsgWorkRequest)
	encodeWorkRequestBody(e, req)
	return e.finishFrame()
}

// AppendWorkResponseFrame appends the framed binary encoding of resp to dst.
func AppendWorkResponseFrame(dst []byte, resp *WorkResponse) ([]byte, error) {
	e := newFrameEncoder(dst)
	e.u8(wireMsgWorkResponse)
	encodeWorkResponseBody(e, resp)
	return e.finishFrame()
}

// decodePayload runs one body decoder over a frame payload, enforcing the
// expected message kind and rejecting trailing bytes (a CRC-valid payload
// with slack is forged, not torn — same stance as the ledger).
func decodePayload[T any](p []byte, kind byte, what string, body func(*wireDecoder) *T) (*T, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("malformed %s: %w: empty payload", what, ErrWireFrame)
	}
	if p[0] != kind {
		return nil, fmt.Errorf("malformed %s: %w: unexpected message kind %d", what, ErrWireFrame, p[0])
	}
	d := wireDecoder{b: p[1:]}
	msg := body(&d)
	if d.err != nil {
		return nil, fmt.Errorf("malformed %s: %w", what, d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("malformed %s: %w: %d trailing payload bytes", what, ErrWireFrame, len(d.b))
	}
	return msg, nil
}

// DecodeFrame splits one frame off the front of b, verifying length and
// checksum, and returns its payload and the bytes consumed. A stream
// ending mid-frame returns io.ErrUnexpectedEOF.
func DecodeFrame(b []byte) (payload []byte, consumed int, err error) {
	if len(b) < wireFrameHeaderLen {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > MaxWireFrame {
		return nil, 0, fmt.Errorf("%w: frame length %d exceeds limit", ErrWireFrame, n)
	}
	end := wireFrameHeaderLen + int(n)
	if len(b) < end {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload = b[wireFrameHeaderLen:end]
	want := binary.LittleEndian.Uint32(b[4:8])
	if got := crc32.Checksum(payload, wireCRCTable); got != want {
		return nil, 0, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrWireFrame, got, want)
	}
	return payload, end, nil
}

// DecodeRequestFrame decodes one framed binary request from the front of b.
func DecodeRequestFrame(b []byte) (*Request, int, error) {
	payload, n, err := DecodeFrame(b)
	if err != nil {
		return nil, 0, err
	}
	req, err := decodePayload(payload, wireMsgRequest, "request", decodeRequestBody)
	if err != nil {
		return nil, 0, err
	}
	return req, n, nil
}

// DecodeResponseFrame decodes one framed binary response from the front of b.
func DecodeResponseFrame(b []byte) (*Response, int, error) {
	payload, n, err := DecodeFrame(b)
	if err != nil {
		return nil, 0, err
	}
	resp, err := decodePayload(payload, wireMsgResponse, "response", decodeResponseBody)
	if err != nil {
		return nil, 0, err
	}
	return resp, n, nil
}

// DecodeWorkRequestFrame decodes one framed binary work request.
func DecodeWorkRequestFrame(b []byte) (*WorkRequest, int, error) {
	payload, n, err := DecodeFrame(b)
	if err != nil {
		return nil, 0, err
	}
	req, err := decodePayload(payload, wireMsgWorkRequest, "work request", decodeWorkRequestBody)
	if err != nil {
		return nil, 0, err
	}
	return req, n, nil
}

// DecodeWorkResponseFrame decodes one framed binary work response.
func DecodeWorkResponseFrame(b []byte) (*WorkResponse, int, error) {
	payload, n, err := DecodeFrame(b)
	if err != nil {
		return nil, 0, err
	}
	resp, err := decodePayload(payload, wireMsgWorkResponse, "work response", decodeWorkResponseBody)
	if err != nil {
		return nil, 0, err
	}
	return resp, n, nil
}
