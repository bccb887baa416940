package geom

import (
	"math"
	"slices"
	"testing"

	"sinrmac/internal/rng"
)

// checkNear asserts the Buckets contract for one query: AppendNear lists
// every inserted point within one cell side of q, and no id twice.
func checkNear(t *testing.T, b *Buckets, pts []Point, q Point) {
	t.Helper()
	got := make(map[int32]int)
	for _, id := range b.AppendNear(q, nil) {
		if id < 0 || int(id) >= len(pts) {
			t.Fatalf("AppendNear(%v) returned id %d of %d", q, id, len(pts))
		}
		got[id]++
		if got[id] > 1 {
			t.Fatalf("AppendNear(%v) returned id %d twice", q, id)
		}
	}
	for i, p := range pts {
		if p.Dist(q) <= b.side && got[int32(i)] == 0 {
			t.Fatalf("AppendNear(%v) misses point %d at %v, distance %v ≤ cell side %v",
				q, i, p, p.Dist(q), b.side)
		}
	}
}

// randomPoints draws n points uniformly from box.
func randomPoints(src *rng.Source, box Rect, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: box.Min.X + src.Float64()*box.Width(), Y: box.Min.Y + src.Float64()*box.Height()}
	}
	return pts
}

// boundaryPoints sit on cell corners and edges of a unit grid from the
// origin, at exact distances from the boundary queries below.
var boundaryPoints = []Point{
	{X: 0, Y: 0},  // on the corner shared by four cells
	{X: 1, Y: 0},  // on a vertical cell edge
	{X: 2, Y: 0},  // exactly at distance 2 from the origin
	{X: 0, Y: -1}, // on a horizontal edge, negative coordinates
	{X: 0.5, Y: 0.5},
	{X: 0, Y: 0}, // coincident with point 0
}

// TestBuckets checks AppendNear on fixed layouts: a box and side, the
// points inserted and the query. Points may lie outside the box, where
// they are clamped into the border cells.
func TestBuckets(t *testing.T) {
	src := rng.New(7)
	square := func(s float64) Rect { return Rect{Max: Point{X: s, Y: s}} }
	unit := Rect{Min: Point{X: 0, Y: -1}, Max: Point{X: 2, Y: 0.5}}
	cases := []struct {
		name string
		box  Rect
		side float64
		pts  []Point
		q    Point
	}{
		{"neighborhood", BoundingBox([]Point{{-1, -1}, {3, 2.5}}), 1.5,
			[]Point{{0, 0}, {0.5, 0}, {3, 0}, {0, 2.5}, {-1, -1}}, Point{0, 0}},
		{"matches-brute", square(40), 2, randomPoints(src, square(40), 200), Point{20, 20}},
		{"random-query", square(30), 1 + src.Float64()*3, randomPoints(src, square(30), 50),
			Point{src.Float64() * 30, src.Float64() * 30}},
		{"zero-side-coincident", Rect{Min: Point{3, 3}, Max: Point{3, 3}}, 0,
			[]Point{{3, 3}, {3, 3}, {3, 3}}, Point{3, 3}},
		{"zero-radius-at-point", unit, 0, boundaryPoints, Point{0, 0}},
		{"zero-radius-off-point", unit, 0, boundaryPoints, Point{0.25, 0}},
		{"edge-query-radius-one", unit, 1, boundaryPoints, Point{1, 0}},
		{"corner-query-exact-distance", unit, 2, boundaryPoints, Point{0, 0}},
		{"corner-query-just-under", unit, 2 * (1 - 1e-12), boundaryPoints, Point{0, 0}},
		{"outside-box", square(10), 1,
			[]Point{{-0.5, 5}, {-1.2, 5.4}, {10.3, 10.3}, {11, 11}, {5, -50}, {5.5, -50.5}}, Point{-1, 5}},
		{"outside-box-far-query", square(10), 1,
			[]Point{{10.3, 10.3}, {11, 11}, {9.9, 9.9}}, Point{10.6, 10.6}},
		{"line", Rect{Max: Point{X: 99}}, 0, randomPoints(src, Rect{Max: Point{X: 99}}, 100), Point{50, 0}},
		{"infinite-extent", Rect{Min: Point{-math.MaxFloat64, 0}, Max: Point{math.MaxFloat64, 1}}, 1,
			[]Point{{-math.MaxFloat64, 0}, {0, 0.5}, {0.5, 0.5}, {math.MaxFloat64, 1}}, Point{0, 0}},
		{"nan-extent", Rect{Min: Point{math.NaN(), 0}, Max: Point{1, 1}}, 1,
			[]Point{{math.NaN(), 0}, {0.5, 0.5}, {1, 1}}, Point{0.2, 0.2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuckets(tc.box, tc.side, len(tc.pts))
			if !(b.side >= tc.side) {
				t.Fatalf("cell side %v below the requested %v", b.side, tc.side)
			}
			for i, p := range tc.pts {
				b.Insert(i, p)
			}
			checkNear(t, b, tc.pts, tc.q)
			for _, p := range tc.pts {
				checkNear(t, b, tc.pts, p)
			}
		})
	}
}

// FuzzBuckets fuzzes AppendNear's completeness over a random box, side,
// point count and query. A quarter of the points are planted on the circle
// of one cell side around the query, and some fall outside the box. A
// second grid over the same box, bulk-filled with Fill, must answer
// AppendNear exactly as the incremental one does — the same ids in the
// same order — at the query and at every point.
func FuzzBuckets(f *testing.F) {
	f.Add(uint64(1), uint8(12), 3.0, 5.0, 5.0)
	f.Add(uint64(7), uint8(40), 0.0, 0.0, 0.0)
	f.Add(uint64(99), uint8(3), 40.0, 25.0, 25.0)
	f.Add(uint64(0xbeef), uint8(20), 12.5, -5.0, 60.0)
	f.Add(uint64(5), uint8(200), 1e-9, 1e6, -1e6)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, side, qx, qy float64) {
		if math.IsNaN(side) || math.IsNaN(qx) || math.IsNaN(qy) {
			t.Skip("NaN query")
		}
		side = math.Abs(math.Mod(side, 1e6))
		qx, qy = math.Mod(qx, 1e9), math.Mod(qy, 1e9)
		src := rng.New(seed)
		lo := Point{X: (2*src.Float64() - 1) * 1e3, Y: (2*src.Float64() - 1) * 1e3}
		box := Rect{Min: lo, Max: Point{X: lo.X + src.Float64()*100, Y: lo.Y + src.Float64()*100}}
		n := int(nRaw) + 1
		b := NewBuckets(box, side, n)
		q := Point{X: qx, Y: qy}
		pts := randomPoints(src, Rect{Min: box.Min.Sub(Point{X: 5, Y: 5}), Max: box.Max.Add(Point{X: 5, Y: 5})}, n)
		for i := range pts {
			if src.Bernoulli(0.25) && !math.IsInf(b.side, 1) {
				theta := src.Float64() * 2 * math.Pi
				pts[i] = Point{X: q.X + b.side*math.Cos(theta), Y: q.Y + b.side*math.Sin(theta)}
			}
			b.Insert(i, pts[i])
		}
		checkNear(t, b, pts, q)
		bulk := NewBuckets(box, side, n)
		bulk.Fill(pts)
		for _, p := range append([]Point{q}, pts...) {
			if got, want := bulk.AppendNear(p, nil), b.AppendNear(p, nil); !slices.Equal(got, want) {
				t.Fatalf("AppendNear(%v): bulk-filled grid gives %v, incremental inserts %v", p, got, want)
			}
		}
	})
}
