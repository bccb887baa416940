package geom

import (
	"math"
	"sort"
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
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{2, 3}, Point{-1, 1})
	if r.Min != (Point{-1, 1}) || r.Max != (Point{2, 3}) {
		t.Fatalf("NewRect did not normalize corners: %+v", r)
	}
	if got := r.Width(); got != 3 {
		t.Fatalf("Width = %v", got)
	}
	if got := r.Height(); got != 2 {
		t.Fatalf("Height = %v", got)
	}
	if got := r.Area(); got != 6 {
		t.Fatalf("Area = %v", got)
	}
	if got := r.Center(); got != (Point{0.5, 2}) {
		t.Fatalf("Center = %v", got)
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
	e := r.Expand(1)
	if e.Min != (Point{-2, 0}) || e.Max != (Point{3, 4}) {
		t.Fatalf("Expand = %+v", e)
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

func TestMaxPairwiseDist(t *testing.T) {
	if got := MaxPairwiseDist([]Point{{1, 1}}); got != 0 {
		t.Fatalf("MaxPairwiseDist(single) = %v", got)
	}
	pts := []Point{{0, 0}, {3, 4}, {1, 1}}
	if got := MaxPairwiseDist(pts); math.Abs(got-5) > 1e-12 {
		t.Fatalf("MaxPairwiseDist = %v", got)
	}
}

func TestNormalizeMinDist(t *testing.T) {
	pts := []Point{{0, 0}, {0, 2}, {0, 10}}
	scale := NormalizeMinDist(pts, 1)
	if math.Abs(scale-0.5) > 1e-12 {
		t.Fatalf("scale = %v, want 0.5", scale)
	}
	if got := MinPairwiseDist(pts); math.Abs(got-1) > 1e-12 {
		t.Fatalf("min dist after normalize = %v", got)
	}
}

func TestNormalizeMinDistDegenerate(t *testing.T) {
	pts := []Point{{1, 1}}
	if scale := NormalizeMinDist(pts, 1); scale != 1 {
		t.Fatalf("scale for single point = %v", scale)
	}
	same := []Point{{2, 2}, {2, 2}}
	if scale := NormalizeMinDist(same, 1); scale != 1 {
		t.Fatalf("scale for coincident points = %v", scale)
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
	if g.Len() != len(pts) {
		t.Fatalf("Len = %d", g.Len())
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

func TestGridAnnulusCount(t *testing.T) {
	g := NewGrid(1)
	g.Insert(0, Point{1, 0}) // d=1
	g.Insert(1, Point{2, 0}) // d=2
	g.Insert(2, Point{5, 0}) // d=5
	g.Insert(3, Point{0, 0}) // d=0
	center := Point{0, 0}
	if got := g.AnnulusCount(center, 0.5, 2); got != 2 {
		t.Fatalf("AnnulusCount(0.5,2) = %d, want 2", got)
	}
	if got := g.AnnulusCount(center, 2, 10); got != 1 {
		t.Fatalf("AnnulusCount(2,10) = %d, want 1", got)
	}
	if got := g.AnnulusCount(center, 0, 0.1); got != 0 {
		t.Fatalf("AnnulusCount(0,0.1) = %d, want 0", got)
	}
}

func TestGridPointsCopy(t *testing.T) {
	g := NewGrid(1)
	g.Insert(1, Point{1, 2})
	m := g.Points()
	m[1] = Point{9, 9}
	if got := g.Points()[1]; got != (Point{1, 2}) {
		t.Fatalf("Points returned shared map; stored point mutated to %v", got)
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

// TestGridAnyWithin checks the non-allocating existence query against the
// allocating Neighborhood reference on random point sets.
func TestGridAnyWithin(t *testing.T) {
	src := rng.New(31)
	g := NewGrid(3)
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{X: src.Float64() * 100, Y: src.Float64() * 100}
		g.Insert(i, pts[i])
	}
	always := func(int) bool { return true }
	for trial := 0; trial < 200; trial++ {
		p := Point{X: src.Float64() * 120, Y: src.Float64() * 120}
		r := src.Float64() * 15
		want := len(g.Neighborhood(p, r)) > 0
		if got := g.AnyWithin(p, r, always); got != want {
			t.Fatalf("AnyWithin(%v, %v) = %v, Neighborhood says %v", p, r, got, want)
		}
	}
	// The predicate restricts matches: only even ids count.
	even := func(id int) bool { return id%2 == 0 }
	for trial := 0; trial < 200; trial++ {
		p := Point{X: src.Float64() * 120, Y: src.Float64() * 120}
		r := src.Float64() * 15
		want := false
		for _, id := range g.Neighborhood(p, r) {
			if id%2 == 0 {
				want = true
				break
			}
		}
		if got := g.AnyWithin(p, r, even); got != want {
			t.Fatalf("AnyWithin(even) mismatch at %v r=%v", p, r)
		}
	}
	if g.AnyWithin(Point{0, 0}, -1, always) {
		t.Fatal("negative radius matched")
	}
}

// TestGridAnyWithinAllocFree pins the property the fast SINR evaluator
// relies on: the existence query allocates nothing.
func TestGridAnyWithinAllocFree(t *testing.T) {
	g := NewGrid(2)
	for i := 0; i < 100; i++ {
		g.Insert(i, Point{X: float64(i % 10), Y: float64(i / 10)})
	}
	pred := func(id int) bool { return id == 99 }
	allocs := testing.AllocsPerRun(50, func() {
		g.AnyWithin(Point{5, 5}, 4, pred)
	})
	if allocs != 0 {
		t.Fatalf("AnyWithin allocates %.1f objects per query, want 0", allocs)
	}
}

// TestGridAppendWithinMatchesNeighborhood checks the sparse-path ball
// enumeration against the sorted reference query: same membership (the
// AnyWithin predicate), unsorted but duplicate-free, reusing the caller's
// buffer without allocating.
func TestGridAppendWithinMatchesNeighborhood(t *testing.T) {
	src := rng.New(41)
	g := NewGrid(3)
	for i := 0; i < 400; i++ {
		g.Insert(i, Point{X: src.Float64() * 120, Y: src.Float64() * 120})
	}
	var buf []int
	for trial := 0; trial < 300; trial++ {
		p := Point{X: src.Float64() * 140, Y: src.Float64() * 140}
		r := src.Float64() * 18
		want := g.Neighborhood(p, r)
		buf = g.AppendWithin(buf[:0], p, r)
		got := append([]int(nil), buf...)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("AppendWithin(%v, %v) found %d points, Neighborhood %d", p, r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("AppendWithin(%v, %v) mismatch at %d: %d vs %d", p, r, i, got[i], want[i])
			}
		}
	}
	if got := g.AppendWithin(nil, Point{0, 0}, -1); got != nil {
		t.Fatal("negative radius appended points")
	}
}

// TestGridAppendWithinAllocFree pins the property the sparse sender-centric
// SINR path relies on: enumerating a ball into a warm buffer allocates
// nothing.
func TestGridAppendWithinAllocFree(t *testing.T) {
	g := NewGrid(2)
	for i := 0; i < 100; i++ {
		g.Insert(i, Point{X: float64(i % 10), Y: float64(i / 10)})
	}
	buf := make([]int, 0, 128)
	allocs := testing.AllocsPerRun(50, func() {
		buf = g.AppendWithin(buf[:0], Point{5, 5}, 4)
	})
	if allocs != 0 {
		t.Fatalf("AppendWithin allocates %.1f objects per query, want 0", allocs)
	}
}

// TestGridAppendWithinBoundary pins the membership rule at geometric edge
// cases: a query point lying exactly on a cell edge (so its cell key is
// decided by the floor convention), points exactly at distance r, and a
// zero radius, which must return exactly the points coincident with the
// query. These are the cases the sparse candidate enumeration and the
// lattice's near/far split both depend on agreeing about.
func TestGridAppendWithinBoundary(t *testing.T) {
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
			got := append([]int(nil), g.AppendWithin(nil, tc.p, tc.r)...)
			sort.Ints(got)
			if len(got) != len(tc.want) {
				t.Fatalf("AppendWithin(%v, %v) = %v, want %v", tc.p, tc.r, got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("AppendWithin(%v, %v) = %v, want %v", tc.p, tc.r, got, tc.want)
				}
			}
			// The non-allocating existence probe must agree on every case.
			any := g.AnyWithin(tc.p, tc.r, func(int) bool { return true })
			if any != (len(tc.want) > 0) {
				t.Fatalf("AnyWithin(%v, %v) = %v disagrees with AppendWithin %v", tc.p, tc.r, any, tc.want)
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

// TestCellDistBounds fuzzes the two distance-bound queries the SINR bounds
// tier is built on: for random point pairs, the distance must lie within
// the bounds of their cells' lattice offset, and within the point-to-cell
// bounds of either endpoint's cell. Conservativeness is what the bounds
// tier's decision-exactness rests on, so any violation is fatal.
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
		pmin, pmax := PointCellDistBounds(a, bx, by, cell)
		if d < pmin*(1-1e-9) || d > pmax*(1+1e-9) {
			t.Fatalf("point-cell bounds [%g, %g] exclude distance %g", pmin, pmax, d)
		}
		// Point-to-cell bounds are tighter than (contained in) the pure
		// offset bounds, never looser.
		if pmin < dmin*(1-1e-9) || pmax > dmax*(1+1e-9) {
			t.Fatalf("point-cell bounds [%g, %g] looser than offset bounds [%g, %g]", pmin, pmax, dmin, dmax)
		}
	}
	// A point inside the queried cell has distance bound zero.
	if dmin, _ := PointCellDistBounds(Point{1, 1}, 0, 0, cell); dmin != 0 {
		t.Fatalf("point inside cell: dmin = %g, want 0", dmin)
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
