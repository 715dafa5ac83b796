package compman

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// -update regenerates the golden wire fixtures under testdata/wire. Run it
// ONLY for a deliberate, versioned wire change: the whole point of the
// fixtures is that accidental byte drift — a reordered field, a changed
// width, a different CRC polynomial — fails loudly instead of silently
// breaking cross-release interop.
var updateGolden = flag.Bool("update", false, "rewrite golden wire fixtures")

// goldenMessages enumerates the pinned fixture set: one request per Op
// plus representative responses and the worker exchange, named by message
// kind and variant.
func goldenMessages() []struct {
	name  string
	frame func() ([]byte, error)
} {
	var out []struct {
		name  string
		frame func() ([]byte, error)
	}
	reqs := sampleRequests()
	reqNames := make([]string, 0, len(reqs))
	for name := range reqs {
		reqNames = append(reqNames, name)
	}
	sort.Strings(reqNames)
	for _, name := range reqNames {
		req := reqs[name]
		out = append(out, struct {
			name  string
			frame func() ([]byte, error)
		}{"request-" + name, func() ([]byte, error) { return AppendRequestFrame(nil, req) }})
	}
	resps := sampleResponses()
	respNames := make([]string, 0, len(resps))
	for name := range resps {
		respNames = append(respNames, name)
	}
	sort.Strings(respNames)
	for _, name := range respNames {
		resp := resps[name]
		out = append(out, struct {
			name  string
			frame func() ([]byte, error)
		}{"response-" + name, func() ([]byte, error) { return AppendResponseFrame(nil, resp) }})
	}
	out = append(out, struct {
		name  string
		frame func() ([]byte, error)
	}{"work-request", func() ([]byte, error) { return AppendWorkRequestFrame(nil, sampleWorkRequest()) }})
	out = append(out, struct {
		name  string
		frame func() ([]byte, error)
	}{"work-response", func() ([]byte, error) { return AppendWorkResponseFrame(nil, sampleWorkResponse()) }})
	return out
}

// TestGoldenWireFixtures pins the binary encoding of every message kind,
// byte for byte, against checked-in fixtures. A mismatch means the wire
// format changed: if that is intentional, bump the wire version and
// regenerate with `go test ./internal/compman -run TestGoldenWireFixtures
// -update`.
func TestGoldenWireFixtures(t *testing.T) {
	dir := filepath.Join("testdata", "wire")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, m := range goldenMessages() {
		frame, err := m.frame()
		if err != nil {
			t.Fatalf("%s: encode: %v", m.name, err)
		}
		path := filepath.Join(dir, m.name+".bin")
		seen[m.name+".bin"] = true
		if *updateGolden {
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing fixture (regenerate with -update): %v", m.name, err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: wire bytes drifted from fixture:\n got %x\nwant %x\n"+
				"an intentional format change needs a wire version bump and -update", m.name, frame, want)
		}
		// Fixtures must stay decodable by the current release: golden
		// bytes from version N are exactly what a peer still running N
		// will put on the wire.
		if _, _, err := DecodeFrame(want); err != nil {
			t.Errorf("%s: fixture no longer decodes: %v", m.name, err)
		}
	}
	// Orphaned fixtures mean a message kind disappeared without the
	// format-change ritual.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir (regenerate with -update): %v", err)
	}
	for _, e := range entries {
		if !seen[e.Name()] {
			t.Errorf("orphaned fixture %s: no message in the golden set produces it", e.Name())
		}
	}
	if len(entries) != len(seen) && !*updateGolden {
		t.Errorf("fixture count %d != golden set %d", len(entries), len(seen))
	}
}

// TestGoldenFixtureDeterminism double-encodes the golden set to prove the
// encoder has no hidden nondeterminism (map iteration, pooled-buffer
// residue) that would make the byte-drift test flaky.
func TestGoldenFixtureDeterminism(t *testing.T) {
	for _, m := range goldenMessages() {
		a, err := m.frame()
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.frame()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: nondeterministic encoding", m.name)
		}
	}
}
