package compman

import "testing"

// TestFingerprintRepresentationStable sends one query in several spellings
// — defaults spelled out (mode "tight", an explicit zero Col and Gamma, an
// empty rather than absent InputRanges) versus omitted, and floats written
// in other notations — and requires the later ones to be cache hits on the
// first: the cache key (internal/query) is over the decoded, resolved
// query, never the request's representation.
func TestFingerprintRepresentationStable(t *testing.T) {
	variants := []*Request{
		{
			Dataset:      "census",
			Program:      &ProgramSpec{Type: "percentile", P: 0.5},
			OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
			Epsilon:      0.5,
			BlockSize:    250,
			Seed:         42,
		},
		{
			Dataset:      "census",
			Mode:         "tight",
			Program:      &ProgramSpec{Type: "percentile", Col: 0, P: 0.5},
			OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
			InputRanges:  []RangeSpec{},
			Epsilon:      0.5,
			BlockSize:    250,
			Gamma:        0,
			Seed:         42,
		},
		{
			Seed:         42,
			Program:      &ProgramSpec{P: 5e-1, Type: "percentile"},
			OutputRanges: []RangeSpec{{Hi: 1.5e2, Lo: 0e0}},
			Epsilon:      0.50,
			Dataset:      "census",
			BlockSize:    250,
		},
	}
	client, _ := startCachedServer(t, censusRegistry(t, 100), ServerConfig{})
	var first *Response
	for i, req := range variants {
		resp, err := client.Query(req)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if i == 0 {
			first = resp
			continue
		}
		if !resp.CacheHit || resp.EpsilonCharged != 0 || resp.Output[0] != first.Output[0] {
			t.Errorf("variant %d missed the cache (hit=%v charged=%v); representation leaked into the key",
				i, resp.CacheHit, resp.EpsilonCharged)
		}
	}
}
