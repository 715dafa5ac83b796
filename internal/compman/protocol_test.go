package compman

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

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

// Property: any valid Request survives a JSON round trip unchanged in the
// fields the server dispatches on.
func TestRequestJSONRoundTripProperty(t *testing.T) {
	f := func(dsRaw string, eps float64, blockSize uint16, seed int64, userLevel bool) bool {
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			return true
		}
		req := Request{
			Op:        OpQuery,
			Dataset:   dsRaw,
			Program:   &ProgramSpec{Type: "mean", Col: 1},
			Epsilon:   eps,
			BlockSize: int(blockSize),
			Seed:      seed,
			UserLevel: userLevel,
			OutputRanges: []RangeSpec{
				{Lo: 0, Hi: 1},
			},
		}
		data, err := json.Marshal(req)
		if err != nil {
			return false
		}
		var back Request
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back.Dataset == req.Dataset &&
			back.Epsilon == req.Epsilon &&
			back.BlockSize == req.BlockSize &&
			back.Seed == req.Seed &&
			back.UserLevel == req.UserLevel &&
			back.Program != nil && back.Program.Type == "mean" && back.Program.Col == 1 &&
			len(back.OutputRanges) == 1 && back.OutputRanges[0] == req.OutputRanges[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
