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

// TestCellIndexStructure checks the dense cell decomposition against the
// definition: every node lands in the cell its floored coordinates name,
// the CSR node lists partition the ids, coordinates stay within Span, and
// CellAt inverts Coord. A compact layout numbers its cells on the dense
// table; an outlier cluster stretches the rectangle past the table's cap,
// and the index keeps the map; so do two occupied cells at the corners of
// a rectangle the point count alone would allow a table for.
func TestCellIndexStructure(t *testing.T) {
	src := rng.New(42)
	compact := make([]Point, 500)
	for i := range compact {
		compact[i] = Point{X: src.Float64()*90 - 45, Y: src.Float64()*90 - 45}
	}
	outlier := make([]Point, 40)
	for i := range outlier {
		outlier[i] = Point{X: src.Float64() * 30, Y: src.Float64() * 30}
	}
	for i := range outlier[:10] {
		outlier[i].X += 1e4
	}
	// Within the cap for 200 occupied cells, but two are occupied: the
	// table the numbering pass used is traded for the map.
	twoCells := make([]Point, 200)
	for i := range twoCells {
		c := float64(i % 2 * 39)
		twoCells[i] = Point{X: c + src.Float64(), Y: c + src.Float64()}
	}
	for _, tc := range []struct {
		name  string
		pts   []Point
		cell  float64
		table bool
	}{
		{"compact", compact, 7.5, true},
		{"outlier", outlier, 7.5, false},
		{"two-cells", twoCells, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ci := NewCellIndex(tc.pts, tc.cell)
			if got := ci.table != nil; got != tc.table || (ci.ids != nil) == got {
				t.Fatalf("table %v, map %v: want exactly the table = %v", got, ci.ids != nil, tc.table)
			}
			sx, sy := ci.Span()
			seen := make(map[int]bool, len(tc.pts))
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
					if p := tc.pts[id]; !rect.Contains(p) {
						t.Fatalf("node %d at %v outside its cell rect %v", id, p, rect)
					}
				}
			}
			if len(seen) != len(tc.pts) {
				t.Fatalf("CSR lists cover %d of %d nodes", len(seen), len(tc.pts))
			}
			checkCellAt(t, ci)
		})
	}
}

// checkCellAt holds CellAt to a brute scan of Coord at every lattice
// coordinate within two cells of the span. A span too wide to sweep is
// probed on the 5×5 windows around every occupied cell and every corner of
// the rectangle instead.
func checkCellAt(t testing.TB, ci *CellIndex) {
	t.Helper()
	brute := func(cx, cy int) int {
		for c := 0; c < ci.NumCells(); c++ {
			if x, y := ci.Coord(c); x == cx && y == cy {
				return c
			}
		}
		return -1
	}
	probe := func(cx, cy int) {
		t.Helper()
		if got, want := ci.CellAt(cx, cy), brute(cx, cy); got != want {
			t.Fatalf("CellAt(%d, %d) = %d, brute scan of Coord %d", cx, cy, got, want)
		}
	}
	sx, sy := ci.Span()
	if sx < 1<<8 && sy < 1<<8 {
		for cx := -2; cx <= sx+2; cx++ {
			for cy := -2; cy <= sy+2; cy++ {
				probe(cx, cy)
			}
		}
		return
	}
	centres := [][2]int{{0, 0}, {sx, 0}, {0, sy}, {sx, sy}}
	for c := 0; c < ci.NumCells(); c++ {
		cx, cy := ci.Coord(c)
		centres = append(centres, [2]int{cx, cy})
	}
	for _, o := range centres {
		for dx := -2; dx <= 2; dx++ {
			for dy := -2; dy <= 2; dy++ {
				probe(o[0]+dx, o[1]+dy)
			}
		}
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
