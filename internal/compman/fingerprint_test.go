package compman

import "testing"

// TestFingerprintRepresentationStable sends one query through four textual
// representations — Go-struct field order, sorted field order, eccentric
// float formatting, and defaults spelled out (mode "tight") versus omitted
// — and requires the later ones to be cache hits on the first: the cache
// key (internal/query) is over the decoded, resolved query, never the
// bytes.
func TestFingerprintRepresentationStable(t *testing.T) {
	variants := []string{
		`{"op":"query","dataset":"census","program":{"type":"percentile","col":0,"p":0.5},` +
			`"outputRanges":[{"lo":0,"hi":150}],"epsilon":0.5,"blockSize":250,"seed":42}`,
		`{"seed":42,"program":{"p":0.5,"col":0,"type":"percentile"},"outputRanges":[{"hi":150,"lo":0}],` +
			`"op":"query","epsilon":0.5,"dataset":"census","blockSize":250}`,
		`{"op":"query","dataset":"census","program":{"type":"percentile","col":0,"p":5e-1},` +
			`"outputRanges":[{"lo":0e0,"hi":1.5e2}],"epsilon":0.50,"blockSize":250,"seed":42}`,
		`{"op":"query","dataset":"census","mode":"tight","program":{"type":"percentile","p":0.5},` +
			`"outputRanges":[{"lo":0,"hi":150}],"epsilon":0.5,"blockSize":250,"seed":42,"gamma":0}`,
	}
	client, _ := startCachedServer(t, censusRegistry(t, 100), ServerConfig{})
	var first *Response
	for i, line := range variants {
		req, err := DecodeRequest([]byte(line))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
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
