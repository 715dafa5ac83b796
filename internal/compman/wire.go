package compman

// Binary wire protocol: a length-prefixed framing reusing the ledger's
// CRC32C frame idiom — and its fuzz-everything discipline. Every one of a
// query's ℓ blocks crosses the manager↔worker path, so the codec is built
// to allocate nothing per message in steady state.
//
// Handshake. A client opens with a 5-byte hello line
//
//	| 0xB1 | 'G' | 'W' | version | '\n' |
//
// and the server answers with its own hello carrying WireVersion; both
// sides then speak frames. There is one live version and no negotiating
// down: a hello below WireVersion is refused with ErrPeerTooOld, and
// anything else — an opening that is not a hello, a truncated or garbled
// hello, an echo above the client's version — fails closed with
// ErrWireNegotiation. Either way the connection is dropped without a
// reply rather than risking frame misparses.
//
// Framing (after the handshake), little-endian, as in internal/ledger:
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
	"slices"
	"sync"
	"unicode/utf8"
	"unsafe"

	"gupt/internal/mathutil"
	"gupt/internal/telemetry"
)

// WireVersion is the one wire version this release speaks. Versions 0
// (newline-delimited JSON), 1 (pre-cache-hit), 2 (pre-tenancy) and 3
// (pre-deadline) are retired; a peer offering one is refused by name with
// ErrPeerTooOld. The version-4 grammar is every field unconditionally: a
// frame missing the request's API key and deadline, or the response's
// tenant and retry hint, is a truncated payload, not an older dialect.
const WireVersion uint8 = 4

// WireMagic is the first byte of a binary-wire hello; a connection that
// opens with any other byte is dropped at once.
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
	// MaxWireFrame bounds one frame's payload, and with it decode
	// allocation.
	MaxWireFrame = 64 << 20
	// maxWireString bounds any single string field.
	maxWireString = 1 << 20
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
// proceeding after a garbled hello risks misparsing frames, so both ends
// fail closed.
var ErrWireNegotiation = errors.New("compman: wire negotiation failed")

// ErrWireFrame reports a frame whose length, checksum or grammar is
// invalid. It means the stream can no longer be trusted to be in sync.
var ErrWireFrame = errors.New("compman: invalid wire frame")

// ErrPeerTooOld reports a well-formed hello offering a version below
// WireVersion. It is deliberately a distinct error from ErrWireNegotiation
// (a garbled or tampered handshake): the operator's fix for a too-old peer
// is an upgrade, not a network investigation, and pool construction
// surfaces it by name so a stale worker build is diagnosed from the error
// alone.
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

// readWireHello reads and validates one hello (or hello echo). A
// structurally valid hello offering a retired version is distinguished
// from garbage: it is a well-built peer that is merely too old, not a
// corrupted stream.
func readWireHello(r *bufio.Reader) (uint8, error) {
	var line [WireHelloLen]byte
	if _, err := io.ReadFull(r, line[:]); err != nil {
		return 0, fmt.Errorf("%w: reading hello: %v", ErrWireNegotiation, err)
	}
	if line[0] != WireMagic || line[1] != wireMark0 || line[2] != wireMark1 || line[4] != '\n' {
		return 0, fmt.Errorf("%w: garbled hello %q", ErrWireNegotiation, line[:])
	}
	if line[3] < WireVersion {
		return 0, ErrPeerTooOld
	}
	return line[3], nil
}

// negotiateWire performs the client side of the handshake on a fresh
// connection: offer WireVersion and require it echoed. An echo above it
// means the bytes were tampered with or desynchronized.
func negotiateWire(conn net.Conn, r *bufio.Reader) error {
	if _, err := conn.Write(wireHello(WireVersion)); err != nil {
		return fmt.Errorf("%w: sending hello: %v", ErrWireNegotiation, err)
	}
	v, err := readWireHello(r)
	if err != nil {
		return err
	}
	if v > WireVersion {
		return fmt.Errorf("%w: server echoed version %d above offered %d", ErrWireNegotiation, v, WireVersion)
	}
	return nil
}

// sniffWire performs the server side of the handshake on a just-accepted
// connection: read the hello, echo WireVersion. An opening byte that is
// not the wire magic is refused before anything else is read, so a peer
// speaking some other protocol is dropped at once instead of holding the
// connection for the rest of a hello. A clean close before the first byte
// returns io.EOF untouched.
func sniffWire(conn net.Conn, r *bufio.Reader) error {
	first, err := r.Peek(1)
	if err != nil {
		return err
	}
	if first[0] != WireMagic {
		return fmt.Errorf("%w: opening byte %#x is not a hello", ErrWireNegotiation, first[0])
	}
	if _, err := readWireHello(r); err != nil {
		return err
	}
	if _, err := conn.Write(wireHello(WireVersion)); err != nil {
		return fmt.Errorf("%w: sending hello echo: %v", ErrWireNegotiation, err)
	}
	return nil
}

// readWireFrame reads one frame's payload into *buf (grown as needed and
// reused across calls) and returns it. The header is read into *buf too, so
// that nothing escapes to the heap per frame. io.EOF surfaces untouched
// only at a clean frame boundary; a stream ending mid-frame is
// ErrUnexpectedEOF.
func readWireFrame(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	if cap(*buf) < wireFrameHeaderLen {
		*buf = make([]byte, wireFrameHeaderLen)
	}
	hdr := (*buf)[:wireFrameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
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

// appendMatrix encodes the matrix of rows, reading each row once. The
// uniform case, every row the width of the first, is laid out as one
// contiguous run of rows*cols values so the decoder can rebuild it with two
// allocations total. A later row of another width sends the encoder back
// to the matrix's start, in the per-row layout. Zero-width rows go per-row
// too, where each costs its 4-byte length: in the uniform layout no cell
// would bound how many there are. An empty matrix is uniform 0×0.
func appendMatrix[R ~[]float64](e *wireEncoder, rows []R) {
	n := len(rows)
	start := len(e.b)
	cols := 0
	if n > 0 {
		cols = len(rows[0])
	}
	if n == 0 || cols > 0 {
		e.u8(1)
		e.u32(uint32(n))
		e.u32(uint32(cols))
		b := slices.Grow(e.b, 8*n*cols)
		i := 0
		for ; i < n; i++ {
			r := rows[i]
			if len(r) != cols {
				break
			}
			for _, x := range r {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
		}
		if i == n {
			e.b = b
			return
		}
		e.b = b[:start]
	}
	e.u8(0)
	e.u32(uint32(n))
	for _, r := range rows {
		e.f64s(r)
	}
}

// appendBlock encodes rows idx[0], idx[1], … of m, the bytes appendMatrix
// writes for a view of those rows, reading each row from m's cells by
// stride. Every row has m's width, so a block is uniform unless its rows
// are zero-width, which go per-row as appendMatrix sends them; an empty
// block is uniform 0×0 whatever m's width.
func appendBlock(e *wireEncoder, m mathutil.Matrix, idx []int) {
	n, w := len(idx), m.Width()
	if n == 0 {
		w = 0
	} else if w == 0 {
		e.u8(0)
		e.u32(uint32(n))
		for range idx {
			e.u32(0)
		}
		return
	}
	e.u8(1)
	e.u32(uint32(n))
	e.u32(uint32(w))
	cells := m.Cells()
	b := slices.Grow(e.b, 8*n*w)
	if w == 1 {
		for _, i := range idx {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cells[i]))
		}
	} else {
		for _, i := range idx {
			for _, x := range cells[i*w : (i+1)*w] {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
		}
	}
	e.b = b
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

// strBytes reads a string field and returns its bytes, a view of the
// payload; nil on error.
func (d *wireDecoder) strBytes() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxWireString {
		d.failf("%w: string length %d exceeds limit", ErrWireFrame, n)
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	if !utf8.Valid(b) {
		// Every string on the wire is text the server may echo into logs,
		// labels and errors; bytes that are not UTF-8 are a forged frame.
		d.failf("%w: string field is not valid UTF-8", ErrWireFrame)
		return nil
	}
	return b
}

func (d *wireDecoder) str() string { return string(d.strBytes()) }

// strOr reads a string field as str does, but returns old itself, with no
// allocation, when the field spells it: a field that repeats from message
// to message (a connection's program, a query's trace id) is built once.
func (d *wireDecoder) strOr(old string) string {
	b := d.strBytes()
	if string(b) == old {
		return old
	}
	return string(b)
}

// name reads a span's stage or status as str does, returning the
// telemetry constant, with no allocation, for the names a worker sends.
func (d *wireDecoder) name() string {
	b := d.strBytes()
	switch string(b) {
	case telemetry.StageWorkerSetup:
		return telemetry.StageWorkerSetup
	case telemetry.StageWorkerExecute:
		return telemetry.StageWorkerExecute
	case telemetry.StatusOK:
		return telemetry.StatusOK
	case telemetry.StatusError:
		return telemetry.StatusError
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
	decodeCells(out, raw)
	return out
}

// cellsByCopy says whether this platform's float64s are little-endian IEEE
// bits in memory, the wire's layout, so that decodeCells can copy a run of
// cells as bytes. Decided once, from the platform; only big-endian hosts
// take the per-cell loop.
var cellsByCopy = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeCells fills dst from raw, len(dst) little-endian float64s, bit for
// bit (NaN payloads included): one copy into a byte view of dst where the
// layouts agree, one conversion per cell where they do not.
func decodeCells(dst []float64, raw []byte) {
	if len(dst) == 0 {
		return
	}
	if cellsByCopy {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst)), raw)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
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
		backing := make([]float64, rows*cols)
		decodeCells(backing, raw)
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
	if cols == 0 && rows != 0 {
		// Nothing in the payload bounds a count of zero-width rows, and the
		// encoder sends such rows per-row.
		d.failf("%w: uniform matrix of %d zero-width rows", ErrWireFrame, rows)
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
// cut (mathutil.RowBuf), its cells in one decodeCells. A ragged one is rare
// and decoded fresh.
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
	out, cells := buf.Grid(int(rows), int(cols))
	decodeCells(cells, raw)
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

// decodeProgramSpec decodes into ps, overwriting every field; a string
// field that spells ps's old value keeps it (wireDecoder.strOr).
func decodeProgramSpec(d *wireDecoder, ps *ProgramSpec) {
	*ps = ProgramSpec{
		Type:        d.strOr(ps.Type),
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
		Path:        d.strOr(ps.Path),
		Args:        d.strs(),
		OutputDims:  d.intf(),
	}
}

func encodeRequestBody(e *wireEncoder, req *Request) {
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
		appendMatrix(e, req.Register.Rows)
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
	e.str(req.APIKey)
	e.i64(req.DeadlineMillis)
}

func decodeRequestBody(d *wireDecoder) *Request {
	req := &Request{
		Op:      Op(d.str()),
		Dataset: d.str(),
	}
	if d.boolb() {
		req.Program = new(ProgramSpec)
		decodeProgramSpec(d, req.Program)
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
				q := &s.Queries[i]
				decodeProgramSpec(d, &q.Program)
				q.OutputRanges = d.rangesf()
				q.BlockSize = d.intf()
				q.Gamma = d.intf()
				q.Seed = d.i64()
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
	req.APIKey = d.str()
	req.DeadlineMillis = d.i64()
	return req
}

func encodeResponseBody(e *wireEncoder, resp *Response) {
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
	e.str(resp.Tenant)
	e.i64(resp.RetryAfterMillis)
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
	resp.Tenant = d.str()
	resp.RetryAfterMillis = d.i64()
	return resp
}

func encodeWorkSpec(e *wireEncoder, spec *WorkSpec) {
	encodeProgramSpec(e, &spec.Program)
	e.i64(spec.QuantumMillis)
	e.str(spec.TraceID)
}

// decodeWorkSpec decodes into spec, keeping each string field that spells
// its old value, as decodeProgramSpec does. prog is the bytes the program
// spec was decoded from.
func decodeWorkSpec(d *wireDecoder, spec *WorkSpec) (prog []byte) {
	rest := d.b
	decodeProgramSpec(d, &spec.Program)
	prog = rest[:len(rest)-len(d.b)]
	spec.QuantumMillis = d.i64()
	spec.TraceID = d.strOr(spec.TraceID)
	return prog
}

func decodeWorkRequestBody(d *wireDecoder) *WorkRequest {
	req := new(WorkRequest)
	decodeWorkSpec(d, &req.Spec)
	req.Block = d.matrix()
	return req
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
	resp := new(WorkResponse)
	decodeWorkResponse(d, resp, "")
	return resp
}

// decodeWorkResponse decodes into resp, overwriting every field, and is
// the pool's decoder: resp's span storage is reused, a TraceID that echoes
// traceID is traceID itself, and the worker's stage and status names are
// the telemetry constants, so a reply allocates only its Output (and an
// Error or an unexpected name, if it carries one).
func decodeWorkResponse(d *wireDecoder, resp *WorkResponse, traceID string) {
	resp.Output = d.f64s()
	resp.Error = d.str()
	resp.TraceID = d.strOr(traceID)
	resp.Spans = resp.Spans[:0]
	// A RemoteSpan is at least 16 bytes on the wire.
	if n := d.count(16); d.err == nil && n > 0 {
		resp.Spans = slices.Grow(resp.Spans, n)[:n]
		for i := range resp.Spans {
			resp.Spans[i] = telemetry.RemoteSpan{
				Stage:  d.name(),
				Status: d.name(),
				Millis: d.f64(),
			}
		}
	}
}

// --- framed message entry points ---

// AppendRequestFrame appends the framed binary encoding of req to dst and
// returns the extended slice. dst[:0] of a pooled buffer makes this
// allocation-free in steady state.
func AppendRequestFrame(dst []byte, req *Request) ([]byte, error) {
	e := newFrameEncoder(dst)
	e.u8(wireMsgRequest)
	encodeRequestBody(e, req)
	return e.finishFrame()
}

// AppendResponseFrame appends the framed binary encoding of resp to dst.
func AppendResponseFrame(dst []byte, resp *Response) ([]byte, error) {
	e := newFrameEncoder(dst)
	e.u8(wireMsgResponse)
	encodeResponseBody(e, resp)
	return e.finishFrame()
}

// AppendWorkRequestFrame appends the framed binary encoding of req to dst.
func AppendWorkRequestFrame(dst []byte, req *WorkRequest) ([]byte, error) {
	return appendWorkFrame(dst, &req.Spec, req.Block)
}

// appendWorkFrame appends the work request frame of spec and rows to dst.
func appendWorkFrame[R ~[]float64](dst []byte, spec *WorkSpec, rows []R) ([]byte, error) {
	e := newFrameEncoder(dst)
	e.u8(wireMsgWorkRequest)
	encodeWorkSpec(e, spec)
	appendMatrix(e, rows)
	return e.finishFrame()
}

// appendBlockFrame appends the work request frame of spec and the block of
// rows idx[0], idx[1], … of m to dst: the frame AppendWorkRequestFrame
// would encode from a view of those rows, read from m by stride without
// the view.
func appendBlockFrame(dst []byte, spec *WorkSpec, m mathutil.Matrix, idx []int) ([]byte, error) {
	e := newFrameEncoder(dst)
	e.u8(wireMsgWorkRequest)
	encodeWorkSpec(e, spec)
	appendBlock(e, m, idx)
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
	d, err := openPayload(p, kind, what)
	if err != nil {
		return nil, err
	}
	msg := body(&d)
	if err := d.close(what); err != nil {
		return nil, err
	}
	return msg, nil
}

// openPayload checks a payload's message kind and returns a decoder over
// its body: decodePayload's first half, for a caller decoding into storage
// of its own.
func openPayload(p []byte, kind byte, what string) (wireDecoder, error) {
	if len(p) == 0 {
		return wireDecoder{}, fmt.Errorf("malformed %s: %w: empty payload", what, ErrWireFrame)
	}
	if p[0] != kind {
		return wireDecoder{}, fmt.Errorf("malformed %s: %w: unexpected message kind %d", what, ErrWireFrame, p[0])
	}
	return wireDecoder{b: p[1:]}, nil
}

// close is decodePayload's second half: the body's first error, or its
// trailing bytes.
func (d *wireDecoder) close(what string) error {
	if d.err != nil {
		return fmt.Errorf("malformed %s: %w", what, d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("malformed %s: %w: %d trailing payload bytes", what, ErrWireFrame, len(d.b))
	}
	return nil
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
