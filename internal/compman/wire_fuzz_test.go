package compman

import (
	"bytes"
	"testing"

	"gupt/internal/telemetry"
)

// FuzzWireEquivalence is the wire's lockdown: the decoders never panic,
// and any frame one of them accepts must re-encode to a canonical frame
// that decodes and re-encodes to the same bytes. Identity is asserted on
// canonical frames, which compare NaN payloads and -0.0 bit-exactly where
// DeepEqual cannot.
//
// The corpus seeds every message kind with every Op, including the
// trace-context fields (Response.TraceID, WorkSpec.TraceID,
// WorkResponse.Spans), plus framing edge cases.
func FuzzWireEquivalence(f *testing.F) {
	for _, req := range sampleRequests() {
		if frame, err := AppendRequestFrame(nil, req); err == nil {
			f.Add(frame)
		}
	}
	for _, resp := range sampleResponses() {
		if frame, err := AppendResponseFrame(nil, resp); err == nil {
			f.Add(frame)
		}
	}
	if frame, err := AppendWorkRequestFrame(nil, sampleWorkRequest()); err == nil {
		f.Add(frame)
	}
	if frame, err := AppendWorkResponseFrame(nil, sampleWorkResponse()); err == nil {
		f.Add(frame)
	}
	// Framing edge cases: empty input, torn header, zero-length frame with
	// a valid CRC, declared length past the buffer, garbage.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 1})
	f.Add([]byte("!!not-a-frame-at-all!!\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, _, err := DecodeRequestFrame(data); err == nil {
			canon := mustFrame(t, "request", func(dst []byte) ([]byte, error) { return AppendRequestFrame(dst, req) })
			checkBinaryStable(t, "request", canon, func(b []byte) (any, error) {
				m, _, err := DecodeRequestFrame(b)
				return m, err
			}, func(m any, dst []byte) ([]byte, error) { return AppendRequestFrame(dst, m.(*Request)) })
		}
		if resp, _, err := DecodeResponseFrame(data); err == nil {
			canon := mustFrame(t, "response", func(dst []byte) ([]byte, error) { return AppendResponseFrame(dst, resp) })
			checkBinaryStable(t, "response", canon, func(b []byte) (any, error) {
				m, _, err := DecodeResponseFrame(b)
				return m, err
			}, func(m any, dst []byte) ([]byte, error) { return AppendResponseFrame(dst, m.(*Response)) })
		}
		if wreq, _, err := DecodeWorkRequestFrame(data); err == nil {
			canon := mustFrame(t, "work request", func(dst []byte) ([]byte, error) { return AppendWorkRequestFrame(dst, wreq) })
			checkBinaryStable(t, "work request", canon, func(b []byte) (any, error) {
				m, _, err := DecodeWorkRequestFrame(b)
				return m, err
			}, func(m any, dst []byte) ([]byte, error) { return AppendWorkRequestFrame(dst, m.(*WorkRequest)) })
		}
		if wresp, _, err := DecodeWorkResponseFrame(data); err == nil {
			canon := mustFrame(t, "work response", func(dst []byte) ([]byte, error) { return AppendWorkResponseFrame(dst, wresp) })
			checkBinaryStable(t, "work response", canon, func(b []byte) (any, error) {
				m, _, err := DecodeWorkResponseFrame(b)
				return m, err
			}, func(m any, dst []byte) ([]byte, error) { return AppendWorkResponseFrame(dst, m.(*WorkResponse)) })
			// Wire-origin spans must also survive the trace-merge
			// sanitization boundary (caps strings, drops non-finite
			// durations) without panicking or poisoning the trace's export.
			tr := telemetry.NewTrace(nil, "fuzz", "ds")
			tr.AddRemoteSpans("worker:fuzz", wresp.Spans)
			_ = tr.String()
		}
	})
}

// mustFrame encodes an accepted message; a decoder must never accept a
// message its encoder refuses.
func mustFrame(t *testing.T, what string, enc func([]byte) ([]byte, error)) []byte {
	t.Helper()
	frame, err := enc(nil)
	if err != nil {
		t.Fatalf("accepted %s does not re-encode: %v", what, err)
	}
	return frame
}

// checkBinaryStable asserts decode∘encode is the identity on canonical
// frames: the second round trip must reproduce the same bytes.
func checkBinaryStable(t *testing.T, what string, canon []byte, dec func([]byte) (any, error), enc func(any, []byte) ([]byte, error)) {
	t.Helper()
	again, err := dec(canon)
	if err != nil {
		t.Fatalf("%s: canonical frame rejected: %v", what, err)
	}
	frame2, err := enc(again, nil)
	if err != nil {
		t.Fatalf("%s: canonical frame does not re-encode: %v", what, err)
	}
	if !bytes.Equal(canon, frame2) {
		t.Fatalf("%s: canonical frame unstable:\n first %x\nsecond %x", what, canon, frame2)
	}
}
