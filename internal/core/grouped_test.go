package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// userRows builds rows of (userID, value): users records each.
func userRows(seed int64, users, recordsPerUser int) []mathutil.Vec {
	rng := mathutil.NewRNG(seed)
	var rows []mathutil.Vec
	for u := 0; u < users; u++ {
		base := 40 + 10*rng.NormFloat64()
		for r := 0; r < recordsPerUser; r++ {
			rows = append(rows, mathutil.Vec{float64(u), mathutil.Clamp(base+rng.NormFloat64(), 0, 150)})
		}
	}
	return rows
}

// flatten lays rows out as a registered table is: one row-major Matrix.
func flatten(rows []mathutil.Vec) mathutil.Matrix {
	m, err := mathutil.FlattenRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

func TestGroupRowsByColumn(t *testing.T) {
	rows := userRows(1, 10, 3)
	groups, err := GroupRowsByColumn(flatten(rows), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 10 {
		t.Fatalf("got %d groups, want 10", len(groups))
	}
	for gi, g := range groups {
		if len(g) != 3 {
			t.Errorf("group %d has %d rows, want 3", gi, len(g))
		}
		for _, r := range g {
			if rows[r][0] != float64(gi) {
				t.Errorf("group %d contains row of user %v", gi, rows[r][0])
			}
		}
	}
	if _, err := GroupRowsByColumn(flatten(rows), 9); err == nil {
		t.Error("bad column accepted")
	}
	if _, err := GroupRowsByColumn(mathutil.Matrix{}, 0); err == nil {
		t.Error("empty rows accepted")
	}
}

func TestMakeGroupedPartitionKeepsUsersTogether(t *testing.T) {
	rows := userRows(2, 50, 4) // 200 rows
	groups, err := GroupRowsByColumn(flatten(rows), 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := MakeGroupedPartition(mathutil.NewRNG(3), len(rows), groups, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Each user's rows all live in exactly one block.
	userBlock := map[float64]int{}
	counts := map[int]int{}
	for b, block := range p.Blocks {
		for _, r := range block {
			u := rows[r][0]
			if prev, ok := userBlock[u]; ok && prev != b {
				t.Fatalf("user %v split across blocks %d and %d", u, prev, b)
			}
			userBlock[u] = b
			counts[r]++
		}
	}
	for r := range rows {
		if counts[r] != 1 {
			t.Fatalf("row %d appears %d times", r, counts[r])
		}
	}
}

func TestMakeGroupedPartitionResampling(t *testing.T) {
	rows := userRows(4, 60, 2) // 120 rows
	groups, _ := GroupRowsByColumn(flatten(rows), 0)
	const gamma = 3
	p, err := MakeGroupedPartition(mathutil.NewRNG(5), len(rows), groups, 12, gamma)
	if err != nil {
		t.Fatal(err)
	}
	// Each user appears intact in exactly gamma distinct blocks.
	userBlocks := map[float64]map[int]int{}
	for b, block := range p.Blocks {
		for _, r := range block {
			u := rows[r][0]
			if userBlocks[u] == nil {
				userBlocks[u] = map[int]int{}
			}
			userBlocks[u][b]++
		}
	}
	for u, blocks := range userBlocks {
		if len(blocks) != gamma {
			t.Fatalf("user %v in %d blocks, want %d", u, len(blocks), gamma)
		}
		for b, c := range blocks {
			if c != 2 { // both records, intact
				t.Fatalf("user %v has %d records in block %d, want 2", u, c, b)
			}
		}
	}
}

func TestMakeGroupedPartitionValidation(t *testing.T) {
	rng := mathutil.NewRNG(1)
	cases := []struct {
		name      string
		n         int
		groups    [][]int
		beta, gam int
	}{
		{"no groups", 4, nil, 2, 1},
		{"empty group", 4, [][]int{{0, 1}, {}}, 2, 1},
		{"group too large", 4, [][]int{{0, 1, 2}, {3}}, 2, 1},
		{"row out of range", 4, [][]int{{0, 9}}, 2, 1},
		{"duplicate row", 4, [][]int{{0, 1}, {1, 2}}, 2, 1},
		{"missing rows", 4, [][]int{{0, 1}}, 2, 1},
		{"bad beta", 4, [][]int{{0}, {1}, {2}, {3}}, 0, 1},
		{"bad gamma", 4, [][]int{{0}, {1}, {2}, {3}}, 2, 0},
	}
	for _, c := range cases {
		if _, err := MakeGroupedPartition(rng, c.n, c.groups, c.beta, c.gam); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// Property: grouped partitions never split a group and cover each row
// exactly gamma times.
func TestMakeGroupedPartitionProperty(t *testing.T) {
	f := func(usersRaw, perUserRaw uint8, seed int64) bool {
		users := int(usersRaw%20) + 2
		perUser := int(perUserRaw%4) + 1
		n := users * perUser
		rows := userRows(seed, users, perUser)
		groups, err := GroupRowsByColumn(flatten(rows), 0)
		if err != nil {
			return false
		}
		beta := perUser * 3
		if beta > n {
			beta = n
		}
		p, err := MakeGroupedPartition(mathutil.NewRNG(seed), n, groups, beta, 1)
		if err != nil {
			return false
		}
		counts := make([]int, n)
		for _, block := range p.Blocks {
			blockUsers := map[float64]bool{}
			for _, r := range block {
				counts[r]++
				blockUsers[rows[r][0]] = true
			}
			// Every user present in a block is fully present.
			for u := range blockUsers {
				inBlock := 0
				for _, r := range block {
					if rows[r][0] == u {
						inBlock++
					}
				}
				if inBlock != perUser {
					return false
				}
			}
		}
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRunUserLevel(t *testing.T) {
	rows := userRows(6, 400, 5) // 2000 rows, 400 users
	res, err := Run(context.Background(), analytics.Mean{Col: 1}, rows,
		RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}},
		Options{Epsilon: 5, Seed: 7, BlockSize: 50, UserLevel: true, UserColumn: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Output[0]-40) > 10 {
		t.Errorf("user-level mean = %v, want ~40", res.Output[0])
	}
}

func TestRunUserLevelRejectsOversizedUser(t *testing.T) {
	// One user owns more rows than a block can hold: refuse rather than
	// silently weaken the guarantee.
	rows := userRows(8, 2, 50) // 2 users x 50 records
	_, err := Run(context.Background(), analytics.Mean{Col: 1}, rows,
		RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}},
		Options{Epsilon: 1, Seed: 1, BlockSize: 10, UserLevel: true, UserColumn: 0})
	if err == nil {
		t.Fatal("oversized user accepted")
	}
}
