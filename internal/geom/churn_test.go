package geom

import (
	"math"
	"testing"

	"sinrmac/internal/rng"
)

// cellIndexEqual compares a churned index against a freshly built one on
// the same points: same absolute lattice cell per node, same per-cell
// membership. Dense ids may differ (the churned index appends new cells and
// keeps emptied ones), so the comparison goes through absolute coordinates.
func cellIndexEqual(t *testing.T, label string, churned, fresh *CellIndex, points []Point) {
	t.Helper()
	absCoord := func(ci *CellIndex, c int) (int, int) {
		cx, cy := ci.Coord(c)
		return ci.minCX + cx, ci.minCY + cy
	}
	for i := range points {
		gx, gy := absCoord(churned, churned.CellOf(i))
		wx, wy := absCoord(fresh, fresh.CellOf(i))
		if gx != wx || gy != wy {
			t.Fatalf("%s: node %d in cell (%d,%d), fresh build says (%d,%d)", label, i, gx, gy, wx, wy)
		}
	}
	for c := 0; c < fresh.NumCells(); c++ {
		var some int32 = -1
		for _, id := range fresh.Nodes(c) {
			some = id
			break
		}
		if some < 0 {
			continue
		}
		gc := churned.CellOf(int(some))
		got, want := churned.Nodes(gc), fresh.Nodes(c)
		if len(got) != len(want) {
			t.Fatalf("%s: cell membership sizes %d vs %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: cell membership diverged: %v vs %v", label, got, want)
			}
		}
	}
}

// TestCellIndexApplyChurn drives random in-lattice mobility — batches of
// moves over a fixed point set, most of them across cells — against a
// from-scratch rebuild.
func TestCellIndexApplyChurn(t *testing.T) {
	src := rng.New(0xce11)
	const cell = 2.5
	// Points strictly inside a fixed box, so every moved position stays in
	// the original lattice.
	randIn := func() Point {
		return Point{X: src.Float64() * 30, Y: src.Float64() * 30}
	}
	points := make([]Point, 80)
	for i := range points {
		points[i] = randIn()
	}
	// Pin the lattice corners so the span covers the whole box.
	points[0] = Point{X: 0.1, Y: 0.1}
	points[1] = Point{X: 29.9, Y: 29.9}
	ci := NewCellIndex(points, cell)
	for round := 0; round < 30; round++ {
		var dirty []int
		moved := map[int]bool{}
		for k := 0; k < 1+src.Intn(8); k++ {
			id := 2 + src.Intn(len(points)-2)
			points[id] = randIn()
			if !moved[id] {
				moved[id] = true
				dirty = append(dirty, id)
			}
		}
		if !ci.ApplyChurn(points, dirty) {
			t.Fatalf("round %d: in-lattice churn rejected", round)
		}
		cellIndexEqual(t, "round", ci, NewCellIndex(points, cell), points)
	}
}

// TestCellIndexApplyChurnOutOfLattice checks the rebuild signal: a dirty
// point outside the original lattice rejects the churn and leaves the index
// untouched.
func TestCellIndexApplyChurnOutOfLattice(t *testing.T) {
	points := []Point{{X: 0, Y: 0}, {X: 5, Y: 5}, {X: 9, Y: 3}}
	ci := NewCellIndex(points, 2)
	before := make([]int, len(points))
	for i := range points {
		before[i] = ci.CellOf(i)
	}
	churned := append([]Point(nil), points...)
	churned[1] = Point{X: -50, Y: 0}
	if ci.ApplyChurn(churned, []int{1}) {
		t.Fatal("out-of-lattice churn accepted")
	}
	for i := range points {
		if ci.CellOf(i) != before[i] {
			t.Fatal("rejected churn mutated the index")
		}
	}
	// The same churn confined to the lattice is accepted.
	churned[1] = Point{X: 1, Y: 1}
	if !ci.ApplyChurn(churned, []int{1}) {
		t.Fatal("in-lattice churn rejected")
	}
	cellIndexEqual(t, "after", ci, NewCellIndex(churned, 2), churned)
}

// TestCellIndexChurnAllocSteadyState pins the apply-path property the churn
// benchmark relies on: once arenas have grown, a repeating churn cycle
// allocates nothing.
func TestCellIndexChurnAllocSteadyState(t *testing.T) {
	src := rng.New(0xa110)
	const cell = 2.0
	points := make([]Point, 200)
	for i := range points {
		points[i] = Point{X: src.Float64() * 40, Y: src.Float64() * 40}
	}
	ci := NewCellIndex(points, cell)
	away := append([]Point(nil), points...)
	dirty := []int{3, 17, 60, 99, 150}
	for _, id := range dirty {
		away[id] = Point{X: math.Min(points[id].X+3, 39.9), Y: points[id].Y}
	}
	home := append([]Point(nil), points...)
	// Warm both phases, then measure.
	ci.ApplyChurn(away, dirty)
	ci.ApplyChurn(home, dirty)
	i := 0
	phases := [][]Point{away, home}
	allocs := testing.AllocsPerRun(50, func() {
		if !ci.ApplyChurn(phases[i%2], dirty) {
			t.Fatal("steady-state churn rejected")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state ApplyChurn allocates %.1f times per op, want 0", allocs)
	}
}
