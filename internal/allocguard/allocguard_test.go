package allocguard

import (
	"runtime/debug"
	"testing"
)

var sink []byte

func TestBytesCountsWhatFAllocates(t *testing.T) {
	if got := Bytes(func() { sink = make([]byte, 4096) }); got < 4096 || got > 4096+256 {
		t.Errorf("Bytes = %d for a 4096-byte allocation per call", got)
	}
}

func TestBytesRestoresGCPercent(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(137))
	Bytes(func() {})
	if got := debug.SetGCPercent(137); got != 137 {
		t.Errorf("GC percent after Bytes = %d, want 137", got)
	}
}
