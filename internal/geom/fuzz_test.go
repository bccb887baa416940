package geom

import (
	"math"
	"slices"
	"testing"

	"sinrmac/internal/rng"
)

// FuzzPointDistance fuzzes the distance helpers the r²-domain rewrite leans
// on: Dist must be exactly Sqrt∘DistSq (that composition is what makes
// squared-domain comparisons interchangeable with distance comparisons),
// both must be symmetric, and the monotonicity of a correctly rounded Sqrt
// must carry squared-domain orderings into the distance domain.
func FuzzPointDistance(f *testing.F) {
	f.Add(0.0, 0.0, 3.0, 4.0, 5.0)
	f.Add(1.5, -2.25, 1.5, -2.25, 0.0)
	f.Add(1e-300, 0.0, -1e-300, 0.0, 1e-280)
	f.Add(1e150, 1e150, -1e150, -1e150, 1.0)
	f.Add(0.1, 0.2, 0.30000000000000004, 0.4, 0.28284271247461906)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, r float64) {
		p := Point{X: x1, Y: y1}
		q := Point{X: x2, Y: y2}
		d := p.Dist(q)
		dd := p.DistSq(q)
		if want := math.Sqrt(dd); d != want && !(math.IsNaN(d) && math.IsNaN(want)) {
			t.Fatalf("Dist(%v,%v)=%x, Sqrt(DistSq)=%x", p, q, math.Float64bits(d), math.Float64bits(want))
		}
		if back := q.Dist(p); d != back && !(math.IsNaN(d) && math.IsNaN(back)) {
			t.Fatalf("Dist not symmetric: %x vs %x", math.Float64bits(d), math.Float64bits(back))
		}
		if back := q.DistSq(p); dd != back && !(math.IsNaN(dd) && math.IsNaN(back)) {
			t.Fatalf("DistSq not symmetric: %x vs %x", math.Float64bits(dd), math.Float64bits(back))
		}
		if self := p.Dist(p); !math.IsNaN(x1+y1) && self != 0 {
			t.Fatalf("Dist(p,p) = %v, want 0", self)
		}
		// Sqrt monotonicity: squared-domain orderings against r·r survive
		// the root, which is why grid predicates may cull on DistSq ≤ r²
		// while the exact tier recomputes with Dist.
		if r >= 0 && !math.IsNaN(dd) {
			rr := r * r
			if dd <= rr && d > math.Sqrt(rr) {
				t.Fatalf("DistSq=%g ≤ r²=%g but Dist=%g > Sqrt(r²)=%g", dd, rr, d, math.Sqrt(rr))
			}
			if dd > rr && d < math.Sqrt(rr) {
				t.Fatalf("DistSq=%g > r²=%g but Dist=%g < Sqrt(r²)=%g", dd, rr, d, math.Sqrt(rr))
			}
		}
	})
}

// minPairwiseBrute is the quadratic reference for MinPairwiseDist: the
// smallest squared distance over all pairs, with one root at the end.
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

// FuzzMinPairwiseDist fuzzes MinPairwiseDist against the quadratic
// reference. Both minimise DistSq and take one root at the end, so the
// results must be bit-identical on every layout mode:
//
//	0 uniform in a side×side square
//	1 a horizontal line of random points
//	2 a vertical line of random points
//	3 the ParallelLines shape: two unit-spaced rows side apart
//	4 every point coincident
//	5 uniform, with one outlier 1e9 away
//	6 coordinates near ±1e300 or ±MaxFloat64, whose extent overflows
//	7 uniform, with one NaN coordinate
func FuzzMinPairwiseDist(f *testing.F) {
	f.Add(uint64(3), uint8(10), 50.0, uint8(0))
	f.Add(uint64(11), uint8(200), 50.0, uint8(0)) // a denser square
	f.Add(uint64(42), uint8(130), 1e-6, uint8(0)) // near-coincident cloud
	f.Add(uint64(123), uint8(90), 5e4, uint8(0))  // sparse square
	f.Add(uint64(5), uint8(255), 1e3, uint8(1))
	f.Add(uint64(6), uint8(255), 1e3, uint8(2))
	f.Add(uint64(7), uint8(120), 30.0, uint8(3))
	f.Add(uint64(8), uint8(60), 2.5, uint8(4))
	f.Add(uint64(9), uint8(150), 40.0, uint8(5))
	f.Add(uint64(10), uint8(80), 1.0, uint8(6))
	f.Add(uint64(12), uint8(100), 20.0, uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, side float64, mode uint8) {
		if math.IsNaN(side) || math.IsInf(side, 0) {
			t.Skip("non-finite side")
		}
		side = math.Abs(side)
		if side > 1e9 {
			side = math.Mod(side, 1e9)
		}
		n := int(nRaw) + 2
		src := rng.New(seed)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: src.Float64() * side, Y: src.Float64() * side}
		}
		switch mode % 8 {
		case 1:
			for i := range pts {
				pts[i].Y = pts[0].Y
			}
		case 2:
			for i := range pts {
				pts[i].X = pts[0].X
			}
		case 3:
			for i := range pts {
				pts[i] = Point{X: float64(i / 2), Y: float64(i%2) * side}
			}
		case 4:
			for i := range pts {
				pts[i] = pts[0]
			}
		case 5:
			pts[n/2].X += 1e9
		case 6:
			scale := 1e300
			if src.Bernoulli(0.5) {
				scale = math.MaxFloat64
			}
			for i := range pts {
				pts[i] = Point{X: (2*src.Float64() - 1) * scale, Y: (2*src.Float64() - 1) * scale}
			}
		case 7:
			pts[src.Intn(n)].Y = math.NaN()
		}
		if src.Bernoulli(0.3) {
			pts[n-1] = pts[0] // duplicate point: minimum distance exactly 0
		}
		got := MinPairwiseDist(pts)
		want := minPairwiseBrute(pts)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("mode=%d n=%d side=%g: MinPairwiseDist=%x, brute=%x",
				mode%8, n, side, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

// FuzzCellIndex holds CellAt to a brute scan of Coord (checkCellAt) on
// fuzzed layouts, before and after fuzzed dirty sets, and each churned
// index to a fresh build over the same points. Layout modes:
//
//	0 uniform in a side×side square
//	1 a horizontal line of random points
//	2 a few tight clusters spread over the square
//	3 uniform, with one outlier 1e9 away
//
// Each round moves a random dirty set within the original points' bounding
// box (plus, sometimes, one point far outside it, which ApplyChurn must
// reject without touching the index).
func FuzzCellIndex(f *testing.F) {
	f.Add(uint64(1), uint8(60), 40.0, 2.5, uint8(0), uint8(3))
	f.Add(uint64(2), uint8(200), 1e3, 7.0, uint8(1), uint8(2))
	f.Add(uint64(3), uint8(120), 500.0, 1.0, uint8(2), uint8(4))
	f.Add(uint64(4), uint8(30), 20.0, 3.0, uint8(3), uint8(2))
	f.Add(uint64(5), uint8(0), 0.0, 1.0, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, side, cell float64, mode, rounds uint8) {
		if math.IsNaN(side) || math.IsInf(side, 0) || math.IsNaN(cell) || math.IsInf(cell, 0) {
			t.Skip("non-finite side or cell")
		}
		side = math.Mod(math.Abs(side), 1e4)
		cell = 0.5 + math.Mod(math.Abs(cell), 50)
		n := int(nRaw) + 1
		src := rng.New(seed)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: src.Float64() * side, Y: src.Float64() * side}
		}
		switch mode % 4 {
		case 1:
			for i := range pts {
				pts[i].Y = pts[0].Y
			}
		case 2:
			centres := []Point{pts[0], pts[n/2], pts[n-1]}
			for i := range pts {
				c := centres[i%3]
				pts[i] = Point{X: c.X + src.Float64()*cell, Y: c.Y + src.Float64()*cell}
			}
		case 3:
			pts[n/2].X += 1e9
		}
		ci := NewCellIndex(pts, cell)
		checkCellAt(t, ci)
		box := BoundingBox(pts)
		for r := 0; r < int(rounds%6); r++ {
			moved := slices.Clone(pts)
			var dirty []int
			for id := range moved {
				if src.Bernoulli(0.2) {
					moved[id] = Point{X: box.Min.X + src.Float64()*box.Width(), Y: box.Min.Y + src.Float64()*box.Height()}
					dirty = append(dirty, id)
				}
			}
			if len(dirty) > 0 && src.Bernoulli(0.2) {
				moved[dirty[0]] = Point{X: box.Max.X + 10*cell, Y: box.Min.Y}
				if ci.ApplyChurn(moved, dirty) {
					t.Fatalf("round %d: churn out of the lattice accepted", r)
				}
				checkCellAt(t, ci)
				continue
			}
			if !ci.ApplyChurn(moved, dirty) {
				t.Fatalf("round %d: in-lattice churn rejected", r)
			}
			pts = moved
			cellIndexEqual(t, "churned", ci, NewCellIndex(pts, cell), pts)
			checkCellAt(t, ci)
		}
	})
}
