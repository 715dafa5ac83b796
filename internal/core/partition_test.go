package core

import (
	"math"
	"testing"
	"testing/quick"

	"gupt/internal/mathutil"
)

func TestDefaultBlockSize(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0},
		{1, 1},
		{100, 16},    // 100^0.6 ≈ 15.85
		{26733, 453}, // the life-sciences dataset
	}
	for _, c := range cases {
		if got := DefaultBlockSize(c.n); got != c.want {
			t.Errorf("DefaultBlockSize(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := DefaultBlockSize(2); got < 1 || got > 2 {
		t.Errorf("DefaultBlockSize(2) = %d out of [1,2]", got)
	}
}

func TestMakePartitionDisjointCover(t *testing.T) {
	rng := mathutil.NewRNG(1)
	p, err := MakePartition(rng, 1000, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 10 {
		t.Fatalf("NumBlocks = %d, want 10", p.NumBlocks())
	}
	seen := make(map[int]int)
	for _, b := range p.Blocks {
		for _, r := range b {
			seen[r]++
		}
	}
	if len(seen) != 1000 {
		t.Fatalf("partition covers %d rows, want 1000", len(seen))
	}
	for r, c := range seen {
		if c != 1 {
			t.Fatalf("row %d appears %d times with gamma=1", r, c)
		}
	}
}

func TestMakePartitionResampling(t *testing.T) {
	rng := mathutil.NewRNG(2)
	const n, beta, gamma = 500, 50, 4
	p, err := MakePartition(rng, n, beta, gamma)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != gamma*n/beta {
		t.Fatalf("NumBlocks = %d, want %d", p.NumBlocks(), gamma*n/beta)
	}
	// Every record appears in exactly gamma distinct blocks.
	counts := make(map[int]int)
	for bi, b := range p.Blocks {
		inBlock := make(map[int]bool)
		for _, r := range b {
			if inBlock[r] {
				t.Fatalf("row %d duplicated within block %d", r, bi)
			}
			inBlock[r] = true
			counts[r]++
		}
	}
	for r := 0; r < n; r++ {
		if counts[r] != gamma {
			t.Fatalf("row %d appears in %d blocks, want %d", r, counts[r], gamma)
		}
	}
	// Block sizes are balanced around beta.
	for bi, b := range p.Blocks {
		if len(b) < beta-5 || len(b) > beta+5 {
			t.Errorf("block %d size %d far from beta %d", bi, len(b), beta)
		}
	}
}

// Property: for arbitrary (n, beta, gamma) the partition is exact — every
// row in exactly gamma distinct blocks — and no block holds duplicates.
func TestMakePartitionProperty(t *testing.T) {
	f := func(nRaw, betaRaw, gammaRaw uint16, seed int64) bool {
		n := int(nRaw%300) + 1
		beta := int(betaRaw)%n + 1
		maxBlocks := n / beta // lower bound on final block count
		if maxBlocks < 1 {
			maxBlocks = 1
		}
		gamma := int(gammaRaw)%4 + 1
		if gamma > maxBlocks { // respect the gamma <= numBlocks constraint
			gamma = 1
		}
		p, err := MakePartition(mathutil.NewRNG(seed), n, beta, gamma)
		if err != nil {
			return false
		}
		counts := make(map[int]int)
		for _, b := range p.Blocks {
			inBlock := make(map[int]bool)
			for _, r := range b {
				if r < 0 || r >= n || inBlock[r] {
					return false
				}
				inBlock[r] = true
				counts[r]++
			}
		}
		for r := 0; r < n; r++ {
			if counts[r] != gamma {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Regression: random bin placement used to leave empty blocks at small
// block sizes (e.g. beta=2 with odd n), which the engine would substitute
// with range midpoints and bias the aggregate (visible as a spike at
// beta=2 in the Figure 9 sweep).
func TestMakePartitionNoEmptyBlocks(t *testing.T) {
	for _, tc := range []struct{ n, beta, gamma int }{
		{3279, 2, 1}, {3279, 5, 1}, {3279, 1, 1}, {100, 3, 1},
		{500, 2, 2}, {500, 3, 4}, {1000, 7, 3},
	} {
		p, err := MakePartition(mathutil.NewRNG(99), tc.n, tc.beta, tc.gamma)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for bi, b := range p.Blocks {
			if len(b) == 0 {
				t.Errorf("%+v: block %d is empty", tc, bi)
			}
		}
	}
}

// With gamma=1 the partition is exactly balanced: block sizes differ by at
// most one.
func TestMakePartitionBalancedGamma1(t *testing.T) {
	p, err := MakePartition(mathutil.NewRNG(1), 3279, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	minSize, maxSize := len(p.Blocks[0]), len(p.Blocks[0])
	for _, b := range p.Blocks {
		if len(b) < minSize {
			minSize = len(b)
		}
		if len(b) > maxSize {
			maxSize = len(b)
		}
	}
	if maxSize-minSize > 1 {
		t.Errorf("gamma=1 block sizes range [%d, %d], want spread <= 1", minSize, maxSize)
	}
}

func TestMakePartitionValidation(t *testing.T) {
	rng := mathutil.NewRNG(1)
	cases := []struct{ n, beta, gamma int }{
		{0, 1, 1},
		{10, 0, 1},
		{10, 11, 1},
		{10, 1, 0},
		{10, 1, -3},
	}
	for _, c := range cases {
		if _, err := MakePartition(rng, c.n, c.beta, c.gamma); err == nil {
			t.Errorf("MakePartition(%d,%d,%d) accepted", c.n, c.beta, c.gamma)
		}
	}
}

func TestPartitionSensitivity(t *testing.T) {
	rng := mathutil.NewRNG(3)
	p, err := MakePartition(rng, 1000, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// gamma*width/l = 1*8/10.
	if got := p.Sensitivity(8); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Sensitivity = %v, want 0.8", got)
	}
	// Claim 1: for fixed beta, resampling does not increase the noise scale:
	// gamma*width/(gamma*n/beta) = beta*width/n regardless of gamma.
	p4, err := MakePartition(rng, 1000, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := p.Sensitivity(8), p4.Sensitivity(8); math.Abs(a-b) > 1e-12 {
		t.Errorf("Claim 1 violated: gamma=1 sens %v != gamma=4 sens %v", a, b)
	}
}

func TestMakePartitionDeterministic(t *testing.T) {
	a, err := MakePartition(mathutil.NewRNG(9), 200, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MakePartition(mathutil.NewRNG(9), 200, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Blocks {
		if len(a.Blocks[i]) != len(b.Blocks[i]) {
			t.Fatal("partition not deterministic")
		}
		for j := range a.Blocks[i] {
			if a.Blocks[i][j] != b.Blocks[i][j] {
				t.Fatal("partition not deterministic")
			}
		}
	}
}
