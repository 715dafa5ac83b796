package core

import (
	"context"
	"math"
	"slices"
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

// A group larger than the block size contributes its first β rows in table
// order, whatever order the group lists them in, and its other rows reach no
// block; every other group is placed whole, as before.
func TestMakeGroupedPartitionBoundsContribution(t *testing.T) {
	const n, beta = 60, 8
	big := []int{41, 3, 17, 5, 59, 0, 22, 9, 33, 12, 50, 27} // 12 rows, listed out of order
	groups := [][]int{big}
	inBig := map[int]bool{}
	for _, r := range big {
		inBig[r] = true
	}
	var rest []int
	for r := 0; r < n; r++ {
		if !inBig[r] {
			rest = append(rest, r)
		}
	}
	for ; len(rest) > 0; rest = rest[2:] { // the other 48 rows in pairs
		groups = append(groups, rest[:2])
	}
	for _, gamma := range []int{1, 2} {
		p, err := MakeGroupedPartition(mathutil.NewRNG(11), n, groups, beta, gamma)
		if err != nil {
			t.Fatal(err)
		}
		kept := []int{0, 3, 5, 9, 12, 17, 22, 27} // big's eight lowest row indices
		count := make([]int, n)
		for _, block := range p.Blocks {
			for _, r := range block {
				count[r]++
			}
		}
		for r := 0; r < n; r++ {
			want := gamma
			if inBig[r] && !slices.Contains(kept, r) {
				want = 0
			}
			if count[r] != want {
				t.Errorf("γ=%d: row %d is in %d blocks, want %d", gamma, r, count[r], want)
			}
		}
	}
}

// Rows whose user identifier is NaN form one group ahead of the others.
// NaN equals no map key, so looking NaN up by key finds no rows: an empty
// group, and a user-level query that fails after its charge.
func TestGroupRowsByColumnNaNUsers(t *testing.T) {
	rows := userRows(3, 6, 2) // users 0–5, rows 2u and 2u+1
	rows[3][0], rows[8][0], rows[9][0] = math.NaN(), math.NaN(), math.NaN()
	groups, err := GroupRowsByColumn(flatten(rows), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{3, 8, 9}, {0, 1}, {2}, {4, 5}, {6, 7}, {10, 11}}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v, want %v", groups, want)
	}
	for i := range want {
		if !slices.Equal(groups[i], want[i]) {
			t.Fatalf("groups = %v, want %v", groups, want)
		}
	}
	res, err := Run(context.Background(), analytics.Mean{Col: 1}, rows,
		RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}},
		Options{Epsilon: 1, Seed: 2, BlockSize: 2, UserLevel: true, UserColumn: 0})
	if err != nil || len(res.Output) != 1 {
		t.Fatalf("user-level mean over NaN user ids: %v, %v", res, err)
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

// Users who own more rows than a block holds answer at every block size:
// each contributes its first β rows. Failing instead would make whether a
// charged query answers a function of the largest user's row count.
func TestRunUserLevelBoundsOversizedUser(t *testing.T) {
	rows := userRows(8, 2, 50) // 2 users x 50 records
	for _, beta := range []int{1, 10, 49, 50} {
		res, err := Run(context.Background(), analytics.Mean{Col: 1}, rows,
			RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}},
			Options{Epsilon: 1, Seed: 1, BlockSize: beta, UserLevel: true, UserColumn: 0})
		if err != nil {
			t.Fatalf("β=%d: %v", beta, err)
		}
		if res.BlockSize != beta || len(res.Output) != 1 {
			t.Errorf("β=%d: result %+v", beta, res)
		}
	}
}
