// Package geom provides the planar geometry primitives the SINR simulator
// is built on: points, Euclidean distances, bounding boxes, a uniform grid
// that answers the range queries of topology generation, and the dense
// cell index the fast SINR evaluator is built on (CellIndex).
//
// The paper (Section 4.2) places nodes in the Euclidean plane and assumes a
// minimum pairwise distance of 1 (the near-field normalisation); helpers in
// this package enforce and verify that normalisation.
package geom

import (
	"fmt"
	"math"
	"sort"
)

// Point is a location in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q, computed as
// Sqrt(DistSq(p, q)).
//
// The composition through the squared distance is deliberate: Sqrt is a
// single hardware instruction where math.Hypot is a library call with
// branches and scaling, and every distance-derived quantity in the
// simulator (range queries, received powers, threshold comparisons) is
// then one monotone rounding away from the same squared-domain value, so
// d(p,q) < r exactly when DistSq(p,q) < r·r up to the documented grid
// slack. Deployment coordinates are bounded (no risk of dx² overflowing),
// which is the one case Hypot exists to handle.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root when only comparisons are needed.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point {
	return Point{X: p.X + q.X, Y: p.Y + q.Y}
}

// Sub returns p minus q.
func (p Point) Sub(q Point) Point {
	return Point{X: p.X - q.X, Y: p.Y - q.Y}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle with Min at the lower-left corner and
// Max at the upper-right corner.
type Rect struct {
	Min, Max Point
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// BoundingBox returns the smallest axis-aligned rectangle containing all
// points. It returns a zero Rect when points is empty.
func BoundingBox(points []Point) Rect {
	if len(points) == 0 {
		return Rect{}
	}
	// The min and max builtins follow math.Min and math.Max on NaN and
	// signed zeros, and compile inline.
	r := Rect{Min: points[0], Max: points[0]}
	for _, p := range points[1:] {
		r.Min.X = min(r.Min.X, p.X)
		r.Min.Y = min(r.Min.Y, p.Y)
		r.Max.X = max(r.Max.X, p.X)
		r.Max.Y = max(r.Max.Y, p.Y)
	}
	return r
}

// MinPairwiseDist returns the smallest distance between two distinct points.
// It returns +Inf when fewer than two points are given.
//
// The implementation uses a uniform grid to avoid the quadratic scan for
// large inputs, falling back to brute force for small ones.
func MinPairwiseDist(points []Point) float64 {
	n := len(points)
	if n < 2 {
		return math.Inf(1)
	}
	if n <= 64 {
		return minPairwiseBrute(points)
	}
	// Grid with cell size roughly the expected nearest-neighbour spacing.
	box := BoundingBox(points)
	cell := math.Sqrt(box.Area()/float64(n)) + 1e-12
	if cell <= 0 || math.IsNaN(cell) {
		return minPairwiseBrute(points)
	}
	g := NewGrid(cell)
	for i, p := range points {
		g.Insert(i, p)
	}
	// Compare in the squared domain and take one root at the end: Sqrt is
	// monotone (x ≤ y ⟹ Sqrt(x) ≤ Sqrt(y) after rounding), so the minimum
	// commutes with the root and the result is bit-identical to minimising
	// Dist directly.
	bestSq := math.Inf(1)
	for i, p := range points {
		for _, j := range g.Neighborhood(p, cell) {
			if j == i {
				continue
			}
			if d2 := p.DistSq(points[j]); d2 < bestSq {
				bestSq = d2
			}
		}
	}
	// The grid only inspects adjacent cells; if nothing was found there the
	// points are sparse relative to the cell size and we must fall back.
	if math.IsInf(bestSq, 1) {
		return minPairwiseBrute(points)
	}
	return math.Sqrt(bestSq)
}

func minPairwiseBrute(points []Point) float64 {
	bestSq := math.Inf(1)
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			if d2 := points[i].DistSq(points[j]); d2 < bestSq {
				bestSq = d2
			}
		}
	}
	return math.Sqrt(bestSq)
}

// cellKey identifies one cell of a Grid.
type cellKey struct {
	cx, cy int
}

// Grid is a uniform spatial hash over the plane with square cells. It
// supports insertion of indexed points and range queries, and serves
// topology generation (minimum-distance checks).
type Grid struct {
	cell  float64
	cells map[cellKey][]int
	pts   map[int]Point
}

// NewGrid returns an empty grid with the given cell side length. It panics
// if cell is not positive.
func NewGrid(cell float64) *Grid {
	if cell <= 0 || math.IsNaN(cell) {
		panic("geom: grid cell size must be positive")
	}
	return &Grid{
		cell:  cell,
		cells: make(map[cellKey][]int),
		pts:   make(map[int]Point),
	}
}

func (g *Grid) keyFor(p Point) cellKey {
	return cellKey{
		cx: int(math.Floor(p.X / g.cell)),
		cy: int(math.Floor(p.Y / g.cell)),
	}
}

// Insert adds the point p with identifier id. Inserting the same id twice
// keeps both entries; callers are expected to use unique ids.
func (g *Grid) Insert(id int, p Point) {
	k := g.keyFor(p)
	g.cells[k] = append(g.cells[k], id)
	g.pts[id] = p
}

// Neighborhood returns the ids of all points within radius r of p
// (inclusive). The result is sorted for determinism. Membership is decided
// in the squared domain (DistSq ≤ r²), so borderline points are decided
// without ever taking a root.
func (g *Grid) Neighborhood(p Point, r float64) []int {
	if r < 0 {
		return nil
	}
	span := int(math.Ceil(r/g.cell)) + 1
	center := g.keyFor(p)
	rr := r * r
	var out []int
	for dx := -span; dx <= span; dx++ {
		for dy := -span; dy <= span; dy++ {
			k := cellKey{cx: center.cx + dx, cy: center.cy + dy}
			for _, id := range g.cells[k] {
				if g.pts[id].DistSq(p) <= rr {
					out = append(out, id)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}
