package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/workload"
)

// goldenRun is one seeded core.Run and the exact release it made when the
// table was written: the output bits, the effective ranges and the block
// geometry.
type goldenRun struct {
	name   string
	run    func() (*Result, error)
	output []float64
	ranges []dp.Range
	blocks int
	beta   int
	gamma  int
}

// Every mode's seeded answer, pinned bit for bit. Run draws its partition,
// range and noise seeds from the root generator in that order, in every
// mode; each row below names the draw that moves its bits if that order or
// a generator's stream changes. Partition changes move every row (block
// membership changes each block's output).
var goldenRuns = []goldenRun{
	{
		// Tight: the noise seed is the root's third draw, after a range
		// seed that tight mode draws and never uses.
		name: "tight",
		run: func() (*Result, error) {
			return Run(context.Background(), analytics.Mean{Col: 0}, ageRows(21, 2000),
				tightSpec(dp.Range{Lo: 0, Hi: 150}), Options{Epsilon: 1, BlockSize: 40, Seed: 7})
		},
		output: []float64{37.57754923011055},
		ranges: []dp.Range{{Lo: 0, Hi: 150}},
		blocks: 50, beta: 40, gamma: 1,
	},
	{
		// Loose: the range seed (second draw) feeds the private percentile
		// estimate that sets the effective range.
		name: "loose",
		run: func() (*Result, error) {
			return Run(context.Background(), analytics.Mean{Col: 0}, ageRows(22, 2000),
				RangeSpec{Mode: ModeLoose, Output: []dp.Range{{Lo: 0, Hi: 300}}},
				Options{Epsilon: 2, BlockSize: 40, Seed: 5})
		},
		output: []float64{40.13568917744466},
		ranges: []dp.Range{{Lo: 39.518334217313104, Hi: 40.960283120204245}},
		blocks: 50, beta: 40, gamma: 1,
	},
	{
		// Helper: the range seed feeds the private input-range estimate
		// over the whole table, before any block runs.
		name: "helper",
		run: func() (*Result, error) {
			spec := RangeSpec{
				Mode:  ModeHelper,
				Input: []dp.Range{{Lo: 0, Hi: 150}},
				Translate: func(in []dp.Range) []dp.Range {
					return []dp.Range{{Lo: in[0].Lo - 10, Hi: in[0].Hi + 10}}
				},
			}
			return Run(context.Background(), analytics.Mean{Col: 0}, ageRows(23, 2000), spec,
				Options{Epsilon: 2, BlockSize: 40, Seed: 6})
		},
		output: []float64{41.32979240811731},
		ranges: []dp.Range{{Lo: 23.46602892955672, Hi: 56.470809912957215}},
		blocks: 50, beta: 40, gamma: 1,
	},
	{
		// γ = 2: the partition seed shuffles γ copies of the rows, and the
		// noise is scaled by the resampled sensitivity.
		name: "gamma2",
		run: func() (*Result, error) {
			return Run(context.Background(), analytics.Mean{Col: 0}, ageRows(24, 2000),
				tightSpec(dp.Range{Lo: 0, Hi: 150}), Options{Epsilon: 1, BlockSize: 40, Gamma: 2, Seed: 8})
		},
		output: []float64{48.830189698236204},
		ranges: []dp.Range{{Lo: 0, Hi: 150}},
		blocks: 100, beta: 40, gamma: 2,
	},
	{
		// User level: the partition seed shuffles users, not rows, so a
		// user's records share a block.
		name: "user-level",
		run: func() (*Result, error) {
			return Run(context.Background(), analytics.Mean{Col: 1}, userRows(25, 400, 5),
				tightSpec(dp.Range{Lo: 0, Hi: 150}),
				Options{Epsilon: 1, BlockSize: 40, Seed: 9, UserLevel: true, UserColumn: 0})
		},
		output: []float64{39.5324497223573},
		ranges: []dp.Range{{Lo: 0, Hi: 150}},
		blocks: 50, beta: 40, gamma: 1,
	},
	{
		// Automatic block size: β = n^0.6 fixes the block count the
		// partition seed shuffles into.
		name: "auto-beta",
		run: func() (*Result, error) {
			return Run(context.Background(), analytics.Mean{Col: 0}, ageRows(26, 2000),
				tightSpec(dp.Range{Lo: 0, Hi: 150}), Options{Epsilon: 1, Seed: 10})
		},
		output: []float64{38.29934586356324},
		ranges: []dp.Range{{Lo: 0, Hi: 150}},
		blocks: 20, beta: 96, gamma: 1,
	},
	{
		// Tight k-means over LifeSci: every block reseeds KMeans.Seed, so
		// this pins the k-means kernel's bits and draws as well as the
		// partition seed, and forty noise draws seeded by the third root draw.
		name: "kmeans-tight",
		run: func() (*Result, error) {
			km := analytics.KMeans{K: 4, FeatureDims: workload.LifeSciDims, Iters: 20, Seed: 3}
			return Run(context.Background(), km, workload.LifeSci(27, 2000).Rows(),
				tightSpec(centerRanges()...), Options{Epsilon: 20, Seed: 11})
		},
		output: []float64{
			-4.068192128837633, -2.261698602366293, 2.81858903738117, 1.0952790876236418,
			-1.3571560209024411, 0.5350061931810213, -1.5677003904851257, -2.4706873420935844,
			1.0287250206148155, -1.0505333892523405, 0.6122175664376359, -2.8173413043524835,
			1.3281326033684977, 3.1737134461820773, -0.9345674920358349, 5.47463072670128,
			0.9214938942026749, -0.17779560291295704, 0.4218552561044598, -2.3122210811701915,
			2.9600934092980555, -0.03567313428669738, -3.9669698241779665, 2.340455778731255,
			1.716427952993013, -2.9902862111287307, 7.099664331616085, 4.335878736123803,
			-2.604458732948446, 0.21024535297977132, 8.525627325186294, 1.176791478713914,
			-0.631066414089527, 0.6883548045911527, -1.1924741639263057, -1.4792207540928073,
			0.8401607837313753, -0.36351146211949814, -0.3306272339285057, 5.853512631389814,
		},
		ranges: centerRanges(),
		blocks: 20, beta: 96, gamma: 1,
	},
}

// centerRanges are the tight output ranges of four LifeSci centers.
func centerRanges() []dp.Range {
	ranges := make([]dp.Range, 4*workload.LifeSciDims)
	for i := range ranges {
		ranges[i] = workload.LifeSciFeatureRange()
	}
	return ranges
}

// TestSeededAnswersPinned holds every mode's seeded release to the bits it
// had when the table was written. A change in the order Run draws its
// seeds, in a generator's stream, in the partition or in a kernel's
// arithmetic fails here by name; the message prints the new row.
func TestSeededAnswersPinned(t *testing.T) {
	for _, g := range goldenRuns {
		res, err := g.run()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		same := len(res.Output) == len(g.output) && len(res.EffectiveRanges) == len(g.ranges) &&
			res.NumBlocks == g.blocks && res.BlockSize == g.beta && res.Gamma == g.gamma
		for i := 0; same && i < len(g.output); i++ {
			same = math.Float64bits(res.Output[i]) == math.Float64bits(g.output[i])
		}
		for i := 0; same && i < len(g.ranges); i++ {
			same = math.Float64bits(res.EffectiveRanges[i].Lo) == math.Float64bits(g.ranges[i].Lo) &&
				math.Float64bits(res.EffectiveRanges[i].Hi) == math.Float64bits(g.ranges[i].Hi)
		}
		if !same {
			t.Errorf("%s released a different answer; now:\n%s", g.name, goldenRow(res))
		}
	}
}

// goldenRow prints a result as the fields of a goldenRun literal.
func goldenRow(res *Result) string {
	var b strings.Builder
	b.WriteString("output: []float64{")
	for i, v := range res.Output {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteString("},\nranges: []dp.Range{")
	for i, r := range res.EffectiveRanges {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "{Lo: %s, Hi: %s}", strconv.FormatFloat(r.Lo, 'g', -1, 64), strconv.FormatFloat(r.Hi, 'g', -1, 64))
	}
	fmt.Fprintf(&b, "},\nblocks: %d, beta: %d, gamma: %d,", res.NumBlocks, res.BlockSize, res.Gamma)
	return b.String()
}
