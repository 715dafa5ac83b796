package faultinject

import (
	"testing"

	"gupt/internal/compman"
)

// The proxy mirrors the binary-wire layout constants instead of importing
// them (compman's chaos tests import this package, so the dependency
// cannot run the other way). This pin is what keeps the mirror honest: if
// the canonical constants in compman/wire.go move, this fails before any
// chaos test silently degrades into relaying garbage.
func TestWireConstantsMirrorCompman(t *testing.T) {
	if wireHelloLen != compman.WireHelloLen {
		t.Errorf("wireHelloLen %d != compman.WireHelloLen %d", wireHelloLen, compman.WireHelloLen)
	}
	if wireFrameHeaderLen != compman.WireFrameHeaderLen {
		t.Errorf("wireFrameHeaderLen %d != compman.WireFrameHeaderLen %d", wireFrameHeaderLen, compman.WireFrameHeaderLen)
	}
	if maxWireFrame != compman.MaxWireFrame {
		t.Errorf("maxWireFrame %d != compman.MaxWireFrame %d", maxWireFrame, compman.MaxWireFrame)
	}
}
