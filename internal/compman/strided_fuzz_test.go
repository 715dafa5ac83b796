package compman

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"gupt/internal/mathutil"
	"gupt/internal/telemetry"
)

// parentRowBuf is mathutil.RowBuf's storage and its row-header gather as
// they were before a table became one row-major array, kept verbatim (the
// package qualifiers aside) as the oracle for the strided gather.
type parentRowBuf struct {
	rows []mathutil.Vec
	data []float64
}

func (b *parentRowBuf) grow(n, total int) ([]mathutil.Vec, []float64) {
	if cap(b.rows) < n {
		b.rows = make([]mathutil.Vec, n)
	}
	if cap(b.data) < total {
		b.data = make([]float64, total)
	}
	return b.rows[:n:n], b.data[:total]
}

func (b *parentRowBuf) Gather(src []mathutil.Vec, idx []int) []mathutil.Vec {
	total := 0
	if len(idx) > 0 {
		width := len(src[idx[0]])
		if width == 1 {
			if rows, ok := b.gatherColumn(src, idx); ok {
				return rows
			}
		}
		// Sized for rectangular rows, so that each row is visited once; a
		// row longer than the first sends the gather round again at the
		// exact size.
		total = len(idx) * width
	}
	if rows, ok := b.gather(src, idx, total); ok {
		return rows
	}
	total = 0
	for _, i := range idx {
		total += len(src[i])
	}
	rows, _ := b.gather(src, idx, total)
	return rows
}

func (b *parentRowBuf) gatherColumn(src []mathutil.Vec, idx []int) ([]mathutil.Vec, bool) {
	rows, data := b.grow(len(idx), len(idx))
	for j, i := range idx {
		r := src[i]
		if len(r) != 1 {
			return nil, false
		}
		data[j] = r[0]
	}
	for j := range rows {
		rows[j] = data[j : j+1 : j+1]
	}
	return rows, true
}

func (b *parentRowBuf) gather(src []mathutil.Vec, idx []int, total int) ([]mathutil.Vec, bool) {
	rows, data := b.grow(len(idx), total)
	off := 0
	for j, i := range idx {
		r := src[i]
		if len(r) > len(data)-off {
			return nil, false
		}
		end := off + copy(data[off:], r)
		rows[j] = data[off:end:end]
		off = end
	}
	return rows, true
}

// parentAppendMatrix and parentRowAt are the work-frame matrix encoder as
// it was before a table became one row-major array, kept verbatim (the
// names aside) as the oracle for the strided encoder.
func parentAppendMatrix[R ~[]float64](e *wireEncoder, rows []R, idx []int) {
	n := len(rows)
	if idx != nil {
		n = len(idx)
	}
	start := len(e.b)
	cols := 0
	if n > 0 {
		cols = len(parentRowAt(rows, idx, 0))
	}
	if n == 0 || cols > 0 {
		e.u8(1)
		e.u32(uint32(n))
		e.u32(uint32(cols))
		b := slices.Grow(e.b, 8*n*cols)
		i := 0
		for ; i < n; i++ {
			r := parentRowAt(rows, idx, i)
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
	for i := 0; i < n; i++ {
		e.f64s(parentRowAt(rows, idx, i))
	}
}

func parentRowAt[R ~[]float64](rows []R, idx []int, i int) []float64 {
	if idx == nil {
		return rows[i]
	}
	return rows[idx[i]]
}

// parentWorkFrame is the work request frame the parent's encoder wrote for
// spec and rows[idx[0]], rows[idx[1]], … (every row when idx is nil).
func parentWorkFrame(t *testing.T, spec *WorkSpec, rows []mathutil.Vec, idx []int) []byte {
	t.Helper()
	e := newFrameEncoder(nil)
	e.u8(wireMsgWorkRequest)
	encodeWorkSpec(e, spec)
	parentAppendMatrix(e, rows, idx)
	frame, err := e.finishFrame()
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// FuzzStridedMatchesParent holds the engine's two strided copies of a block
// to the row-header paths they replaced: RowBuf.Gather against
// parentRowBuf.Gather, and the pool's block frame against the parent's
// encoder, over a view of the same table. width (mod 12) and rows (mod 64)
// shape the table, picks chooses the index list (empty, repeated, any
// order), and payload supplies each cell's raw bits, so NaN payloads and
// ±Inf are compared bit for bit. The gather also runs into storage a wider,
// larger block left stale, and the public encoder over the view must write
// the parent's frame for every row in order. Both frames then go through
// the worker's recycled decode (checkWorkDecode), and a reply built from
// the same inputs through the pool's (checkReplyDecode).
func FuzzStridedMatchesParent(f *testing.F) {
	bits := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		return b
	}
	f.Add(uint8(1), uint8(4), []byte{3, 0, 2, 0}, bits(0x7ff8000000000001, 0x7ff0000000000000, 0xfff0000000000000, 0x7ff0000000000001))
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0}, bits(0xfff8dead0000beef))
	f.Add(uint8(3), uint8(5), []byte{4, 1, 1, 0}, bits(0x7ff4000000000000, 0x8000000000000000, 1))
	f.Add(uint8(11), uint8(3), []byte{2, 1, 0}, []byte{0xff, 0x7f, 0x01})
	f.Add(uint8(0), uint8(4), []byte{1, 3}, []byte{})
	f.Add(uint8(2), uint8(6), []byte{}, bits(42))
	f.Add(uint8(5), uint8(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, width, nrows uint8, picks, payload []byte) {
		w, n := int(width%12), int(nrows%64)
		cells := make([]float64, n*w)
		for k := range cells {
			if len(payload) == 0 {
				cells[k] = float64(k)
				continue
			}
			var b [8]byte
			for i := range b {
				b[i] = payload[(8*k+i)%len(payload)]
			}
			cells[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		table := mathutil.NewMatrix(cells, n, w)
		view := table.Rows()
		idx := []int{}
		if n > 0 {
			for _, p := range picks {
				idx = append(idx, int(p)%n)
			}
		}

		want := new(parentRowBuf).Gather(view, idx)
		var stale mathutil.RowBuf
		stale.Grid(len(idx)+7, 12)
		for _, buf := range []*mathutil.RowBuf{new(mathutil.RowBuf), &stale} {
			got := buf.Gather(table, idx)
			if len(got) != len(want) || cap(got) != len(got) {
				t.Fatalf("gathered %d rows (cap %d), the parent %d", len(got), cap(got), len(want))
			}
			for j := range want {
				if len(got[j]) != len(want[j]) || cap(got[j]) != len(got[j]) {
					t.Fatalf("row %d has %d cells (cap %d), the parent's %d", j, len(got[j]), cap(got[j]), len(want[j]))
				}
				for k := range want[j] {
					if math.Float64bits(got[j][k]) != math.Float64bits(want[j][k]) {
						t.Fatalf("row %d cell %d is %#x, the parent's %#x", j, k, math.Float64bits(got[j][k]), math.Float64bits(want[j][k]))
					}
				}
				if len(got[j]) > 0 && &got[j][0] == &view[idx[j]][0] {
					t.Fatalf("row %d aliases table row %d", j, idx[j])
				}
			}
		}

		spec := sampleWorkRequest().Spec
		frame, err := appendBlockFrame([]byte("stale bytes of an earlier frame"), &spec, table, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, parentWorkFrame(t, &spec, view, idx)) {
			t.Fatalf("%d×%d block of %d rows: the strided frame differs from the parent's", n, w, len(idx))
		}
		block := make([][]float64, len(view))
		for i, r := range view {
			block[i] = r
		}
		public, err := AppendWorkRequestFrame(nil, &WorkRequest{Spec: spec, Block: block})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(public, parentWorkFrame(t, &spec, view, nil)) {
			t.Fatalf("%d×%d table: AppendWorkRequestFrame differs from the parent's encoder", n, w)
		}
		checkWorkDecode(t, frame)
		checkWorkDecode(t, public)
		checkReplyDecode(t, cells, picks)
	})
}

// checkWorkDecode decodes a work request frame the way a worker does,
// decodeWork into a fresh RowBuf and into one a larger, wider block left
// full of NaNs, each with the cells copied as bytes and converted one at a
// time (cellsByCopy), and over a fresh spec and one an earlier block left.
// Every decode must give DecodeWorkRequestFrame's spec and its cells bit
// for bit.
func checkWorkDecode(t *testing.T, frame []byte) {
	t.Helper()
	want, _, err := DecodeWorkRequestFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	defer func(v bool) { cellsByCopy = v }(cellsByCopy)
	for _, byCopy := range []bool{true, false} {
		cellsByCopy = byCopy
		var stale mathutil.RowBuf
		_, junk := stale.Grid(len(want.Block)+5, 13)
		for k := range junk {
			junk[k] = math.Float64frombits(0x7ff8dead0000beef)
		}
		for _, buf := range []*mathutil.RowBuf{new(mathutil.RowBuf), &stale} {
			for _, spec := range []WorkSpec{{}, {Program: ProgramSpec{Type: "kmeans", Path: "p", Args: []string{"a"}}, TraceID: "an earlier query"}} {
				block, prog, err := decodeWork(payload, &spec, buf)
				if err != nil {
					t.Fatal(err)
				}
				var e wireEncoder
				if encodeProgramSpec(&e, &want.Spec.Program); !bytes.Equal(prog, e.b) {
					t.Fatalf("copy %v: decodeWork's program bytes %x, the spec's encoding %x", byCopy, prog, e.b)
				}
				if !reflect.DeepEqual(spec, want.Spec) {
					t.Fatalf("copy %v: decodeWork's spec %+v, DecodeWorkRequestFrame's %+v", byCopy, spec, want.Spec)
				}
				if len(block) != len(want.Block) {
					t.Fatalf("copy %v: decodeWork gave %d rows, DecodeWorkRequestFrame %d", byCopy, len(block), len(want.Block))
				}
				for j, r := range want.Block {
					if !bitsEqual(block[j], r) {
						t.Fatalf("copy %v: row %d decoded as %v, DecodeWorkRequestFrame's %v", byCopy, j, block[j], r)
					}
				}
			}
		}
	}
}

// checkReplyDecode builds a work response from the fuzz inputs — cells as
// its output and span durations, picks as its error, trace id and span
// names, known to the decoder's interning or not, and as often as not
// invalid UTF-8 — and decodes it through the pool's decodeReply, into a
// fresh response and into one an earlier reply left, expecting its trace id
// and expecting another. Every decode must give DecodeWorkResponseFrame's
// fields, or its error.
func checkReplyDecode(t *testing.T, cells []float64, picks []byte) {
	t.Helper()
	names := []string{
		telemetry.StageWorkerSetup, telemetry.StageWorkerExecute, telemetry.StatusOK,
		telemetry.StatusError, telemetry.StageFanoutDispatch, "", string(picks),
	}
	resp := WorkResponse{Output: cells, Error: string(picks[len(picks)/2:]), TraceID: string(picks[:len(picks)/3])}
	for i, p := range picks {
		millis := float64(i)
		if len(cells) > 0 {
			millis = cells[i%len(cells)]
		}
		resp.Spans = append(resp.Spans, telemetry.RemoteSpan{Stage: names[int(p)%len(names)], Status: names[int(p/7)%len(names)], Millis: millis})
	}
	frame, err := AppendWorkResponseFrame(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	want, _, wantErr := DecodeWorkResponseFrame(frame)
	payload, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	earlier := func() *WorkResponse {
		return &WorkResponse{Output: []float64{1}, Error: "e", TraceID: "t", Spans: make([]telemetry.RemoteSpan, 9, 40)}
	}
	for _, traceID := range []string{resp.TraceID, "another query"} {
		for _, got := range []*WorkResponse{new(WorkResponse), earlier()} {
			err := decodeReply(payload, got, traceID)
			if wantErr != nil || err != nil {
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("decodeReply: %v; DecodeWorkResponseFrame: %v", err, wantErr)
				}
				continue
			}
			if !bitsEqual(got.Output, want.Output) || got.Error != want.Error || got.TraceID != want.TraceID || len(got.Spans) != len(want.Spans) {
				t.Fatalf("decodeReply gave %+v, DecodeWorkResponseFrame %+v", got, want)
			}
			for i, s := range want.Spans {
				g := got.Spans[i]
				if g.Stage != s.Stage || g.Status != s.Status || math.Float64bits(g.Millis) != math.Float64bits(s.Millis) {
					t.Fatalf("span %d decoded as %+v, DecodeWorkResponseFrame's %+v", i, g, s)
				}
			}
		}
	}
}
