package compman

import (
	"testing"

	"gupt/internal/dp"
)

func TestRangesWire(t *testing.T) {
	in := []dp.Range{{Lo: -1, Hi: 2}, {Lo: 0, Hi: 0}}
	back, err := rangesFromWire(rangesToWire(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if back[i] != in[i] {
			t.Errorf("range %d: %+v != %+v", i, back[i], in[i])
		}
	}
	if _, err := rangesFromWire([]RangeSpec{{Lo: 2, Hi: 1}}); err == nil {
		t.Error("inverted wire range accepted")
	}
	got, err := rangesFromWire(nil)
	if err != nil || got != nil {
		t.Errorf("nil wire ranges: %v, %v", got, err)
	}
}
