package geom

import (
	"math"
	"testing"
	"testing/quick"

	"sinrmac/internal/rng"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Dist(tc.b); math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Dist = %v, want %v", got, tc.want)
			}
			if got := tc.a.DistSq(tc.b); math.Abs(got-tc.want*tc.want) > 1e-9 {
				t.Fatalf("DistSq = %v, want %v", got, tc.want*tc.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	src := rng.New(1)
	for i := 0; i < 1000; i++ {
		a := Point{src.Float64() * 100, src.Float64() * 100}
		b := Point{src.Float64() * 100, src.Float64() * 100}
		c := Point{src.Float64() * 100, src.Float64() * 100}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Min: Point{-1, 1}, Max: Point{2, 3}}
	if got := r.Width(); got != 3 {
		t.Fatalf("Width = %v", got)
	}
	if got := r.Height(); got != 2 {
		t.Fatalf("Height = %v", got)
	}
	if got := r.Area(); got != 6 {
		t.Fatalf("Area = %v", got)
	}
	if !r.Contains(Point{0, 2}) {
		t.Fatal("Contains(interior) = false")
	}
	if !r.Contains(Point{-1, 1}) {
		t.Fatal("Contains(corner) = false")
	}
	if r.Contains(Point{5, 5}) {
		t.Fatal("Contains(exterior) = true")
	}
}

func TestBoundingBox(t *testing.T) {
	if got := BoundingBox(nil); got != (Rect{}) {
		t.Fatalf("BoundingBox(nil) = %+v", got)
	}
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	box := BoundingBox(pts)
	if box.Min != (Point{-2, -1}) || box.Max != (Point{4, 5}) {
		t.Fatalf("BoundingBox = %+v", box)
	}
	for _, p := range pts {
		if !box.Contains(p) {
			t.Fatalf("bounding box does not contain %v", p)
		}
	}
}

func TestMinPairwiseDistSmall(t *testing.T) {
	if got := MinPairwiseDist(nil); !math.IsInf(got, 1) {
		t.Fatalf("MinPairwiseDist(nil) = %v", got)
	}
	if got := MinPairwiseDist([]Point{{0, 0}}); !math.IsInf(got, 1) {
		t.Fatalf("MinPairwiseDist(1 point) = %v", got)
	}
	pts := []Point{{0, 0}, {10, 0}, {10.5, 0}, {20, 20}}
	if got := MinPairwiseDist(pts); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MinPairwiseDist = %v, want 0.5", got)
	}
}

func TestMinPairwiseDistLargeMatchesBrute(t *testing.T) {
	src := rng.New(99)
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = Point{src.Float64() * 50, src.Float64() * 50}
	}
	want := minPairwiseBrute(pts)
	got := MinPairwiseDist(pts)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("grid min dist %v != brute force %v", got, want)
	}
}

func TestGridPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(0) did not panic")
		}
	}()
	NewGrid(0)
}

func TestGridNeighborhood(t *testing.T) {
	g := NewGrid(1)
	pts := []Point{{0, 0}, {0.5, 0}, {3, 0}, {0, 2.5}, {-1, -1}}
	for i, p := range pts {
		g.Insert(i, p)
	}
	got := g.Neighborhood(Point{0, 0}, 1.5)
	want := []int{0, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("Neighborhood = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighborhood = %v, want %v", got, want)
		}
	}
	if got := g.Neighborhood(Point{0, 0}, -1); got != nil {
		t.Fatalf("negative radius neighborhood = %v", got)
	}
}

func TestGridNeighborhoodMatchesBrute(t *testing.T) {
	src := rng.New(7)
	g := NewGrid(2)
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{src.Float64() * 40, src.Float64() * 40}
		g.Insert(i, pts[i])
	}
	center := Point{20, 20}
	for _, r := range []float64{0.5, 3, 10, 60} {
		got := g.Neighborhood(center, r)
		want := 0
		for _, p := range pts {
			if p.Dist(center) <= r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("radius %v: got %d points, want %d", r, len(got), want)
		}
	}
}

// Property: every point returned by Neighborhood really lies within the
// requested radius.
func TestQuickNeighborhoodWithinRadius(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		g := NewGrid(1 + src.Float64()*3)
		pts := make([]Point, 50)
		for i := range pts {
			pts[i] = Point{src.Float64() * 30, src.Float64() * 30}
			g.Insert(i, pts[i])
		}
		center := Point{src.Float64() * 30, src.Float64() * 30}
		r := src.Float64() * 15
		for _, id := range g.Neighborhood(center, r) {
			if pts[id].Dist(center) > r+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMinPairwiseDist1000(b *testing.B) {
	src := rng.New(5)
	pts := make([]Point, 1000)
	for i := range pts {
		pts[i] = Point{src.Float64() * 100, src.Float64() * 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinPairwiseDist(pts)
	}
}

func BenchmarkGridNeighborhood(b *testing.B) {
	src := rng.New(6)
	g := NewGrid(2)
	for i := 0; i < 2000; i++ {
		g.Insert(i, Point{src.Float64() * 100, src.Float64() * 100})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Neighborhood(Point{50, 50}, 10)
	}
}

// TestGridNeighborhoodBoundary pins the membership rule at geometric edge
// cases: a query point lying exactly on a cell edge (so its cell key is
// decided by the floor convention), points exactly at distance r, and a
// zero radius, which must return exactly the points coincident with the
// query.
func TestGridNeighborhoodBoundary(t *testing.T) {
	g := NewGrid(1)
	pts := []Point{
		{X: 0, Y: 0},  // on the corner shared by four cells
		{X: 1, Y: 0},  // on a vertical cell edge
		{X: 2, Y: 0},  // exactly at distance 2 from the origin
		{X: 0, Y: -1}, // on a horizontal edge, negative coordinates
		{X: 0.5, Y: 0.5},
		{X: 0, Y: 0}, // coincident with point 0
	}
	for i, p := range pts {
		g.Insert(i, p)
	}
	cases := []struct {
		name string
		p    Point
		r    float64
		want []int
	}{
		{"zero-radius-at-point", Point{0, 0}, 0, []int{0, 5}},
		{"zero-radius-off-point", Point{0.25, 0}, 0, nil},
		{"edge-query-radius-one", Point{1, 0}, 1, []int{0, 1, 2, 4, 5}},
		{"corner-query-exact-distance", Point{0, 0}, 2, []int{0, 1, 2, 3, 4, 5}},
		{"corner-query-just-under", Point{0, 0}, 2 * (1 - 1e-12), []int{0, 1, 3, 4, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := g.Neighborhood(tc.p, tc.r)
			if len(got) != len(tc.want) {
				t.Fatalf("Neighborhood(%v, %v) = %v, want %v", tc.p, tc.r, got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("Neighborhood(%v, %v) = %v, want %v", tc.p, tc.r, got, tc.want)
				}
			}
		})
	}
}

// TestCellIndexStructure checks the dense cell decomposition against the
// definition: every node lands in the cell its floored coordinates name,
// the CSR node lists partition the ids, and coordinates stay within Span.
func TestCellIndexStructure(t *testing.T) {
	src := rng.New(42)
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{X: src.Float64()*90 - 45, Y: src.Float64()*90 - 45}
	}
	const cell = 7.5
	ci := NewCellIndex(pts, cell)
	sx, sy := ci.Span()
	seen := make(map[int]bool, len(pts))
	for c := 0; c < ci.NumCells(); c++ {
		cx, cy := ci.Coord(c)
		if cx < 0 || cx > sx || cy < 0 || cy > sy {
			t.Fatalf("cell %d coord (%d,%d) outside span (%d,%d)", c, cx, cy, sx, sy)
		}
		rect := ci.Rect(c)
		for _, id := range ci.Nodes(c) {
			if seen[int(id)] {
				t.Fatalf("node %d listed in two cells", id)
			}
			seen[int(id)] = true
			if ci.CellOf(int(id)) != c {
				t.Fatalf("node %d: CellOf %d, listed under %d", id, ci.CellOf(int(id)), c)
			}
			if p := pts[id]; !rect.Contains(p) {
				t.Fatalf("node %d at %v outside its cell rect %v", id, p, rect)
			}
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("CSR lists cover %d of %d nodes", len(seen), len(pts))
	}
}

// TestCellDistBounds fuzzes the cell-offset distance bounds the SINR
// bounds tier is built on: for random point pairs, the distance must lie
// within the bounds of their cells' lattice offset. Conservativeness is
// what the bounds tier's decision-exactness rests on, so any violation is
// fatal.
func TestCellDistBounds(t *testing.T) {
	src := rng.New(7)
	const cell = 3.25
	for trial := 0; trial < 2000; trial++ {
		a := Point{X: src.Float64()*80 - 40, Y: src.Float64()*80 - 40}
		b := Point{X: src.Float64()*80 - 40, Y: src.Float64()*80 - 40}
		ax, ay := int(math.Floor(a.X/cell)), int(math.Floor(a.Y/cell))
		bx, by := int(math.Floor(b.X/cell)), int(math.Floor(b.Y/cell))
		d := a.Dist(b)
		dmin, dmax := CellOffsetDistBounds(bx-ax, by-ay, cell)
		if d < dmin*(1-1e-9) || d > dmax*(1+1e-9) {
			t.Fatalf("offset bounds [%g, %g] exclude distance %g (offset %d,%d)", dmin, dmax, d, bx-ax, by-ay)
		}
	}
	// Symmetric offsets give identical bounds.
	for _, off := range [][2]int{{0, 0}, {1, 2}, {-3, 4}, {5, 0}} {
		amin, amax := CellOffsetDistBounds(off[0], off[1], cell)
		bmin, bmax := CellOffsetDistBounds(-off[0], -off[1], cell)
		if amin != bmin || amax != bmax {
			t.Fatalf("offset bounds not symmetric at %v", off)
		}
	}
}
