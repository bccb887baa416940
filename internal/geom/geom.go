// Package geom provides the planar geometry primitives the SINR simulator
// is built on: points, Euclidean distances, bounding boxes, the bucket grid
// that answers "which points lie within one cell side of p" for placement,
// the minimum pairwise distance, the epoch spacing check and unit-disk
// graphs (Buckets), and the dense cell index of the fast SINR evaluator
// (CellIndex).
//
// The paper (Section 4.2) places nodes in the Euclidean plane and assumes a
// minimum pairwise distance of 1 (the near-field normalisation); helpers in
// this package enforce and verify that normalisation.
package geom

import (
	"fmt"
	"math"
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
// Each point is compared with the points before it in its Buckets window,
// which holds every point within one cell side. Pass 1 uses cells about the
// mean spacing; when the closest pair it finds is at most the cell side,
// that pair is the global minimum. Otherwise pass 2 rebuilds the grid with
// cells as wide as that pair's distance, which bounds the minimum. Distances
// are compared in the squared domain with one root at the end: Sqrt is
// monotone, so the result is bit-identical to minimising Dist over all
// pairs. Pairs involving a NaN coordinate never compare smaller and are
// ignored.
func MinPairwiseDist(points []Point) float64 {
	if len(points) < 2 {
		return math.Inf(1)
	}
	box := BoundingBox(points)
	n := float64(len(points))
	bestSq, side := minPairwiseNear(points, box, max(math.Sqrt(box.Area()/n), box.Width()/n, box.Height()/n))
	if math.Sqrt(bestSq) > side {
		bestSq, _ = minPairwiseNear(points, box, math.Sqrt(bestSq))
	}
	return math.Sqrt(bestSq)
}

// minPairwiseNear returns the smallest squared distance between two points
// sharing a window of a Buckets grid with cells at least side wide, and the
// grid's cell side.
func minPairwiseNear(points []Point, box Rect, side float64) (bestSq, cell float64) {
	b := NewBuckets(box, side, len(points))
	bestSq = math.Inf(1)
	var near []int32
	for i, p := range points {
		near = b.AppendNear(p, near[:0])
		for _, j := range near {
			if d2 := p.DistSq(points[j]); d2 < bestSq {
				bestSq = d2
			}
		}
		b.Insert(i, p)
	}
	return bestSq, b.side
}
