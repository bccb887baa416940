package geom

import (
	"math"
	"sort"
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

// FuzzGridQueryAgreement fuzzes the grid range query against a brute-force
// scan. Both decide membership by the same DistSq ≤ r·r predicate, so they
// must agree exactly — on borderline points sitting on the query circle
// included.
func FuzzGridQueryAgreement(f *testing.F) {
	f.Add(uint64(1), uint8(12), 5.0, 5.0, 3.0)
	f.Add(uint64(7), uint8(40), 0.0, 0.0, 0.0)
	f.Add(uint64(99), uint8(3), 25.0, 25.0, 40.0)
	f.Add(uint64(0xbeef), uint8(20), -5.0, 60.0, 12.5)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, qx, qy, r float64) {
		if math.IsNaN(qx) || math.IsNaN(qy) || math.IsNaN(r) {
			t.Skip("NaN query")
		}
		// Keep the query commensurate with the deployment so cells stay
		// enumerable; the interesting behaviour is on the circle boundary,
		// not at astronomic magnitudes.
		qx = math.Mod(qx, 100)
		qy = math.Mod(qy, 100)
		r = math.Abs(math.Mod(r, 80))
		n := int(nRaw)%48 + 1
		src := rng.New(seed)
		g := NewGrid(1 + src.Float64()*7)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: src.Float64() * 50, Y: src.Float64() * 50}
			if i > 0 && src.Bernoulli(0.25) {
				// Plant points exactly on the query circle to force the
				// boundary of the DistSq ≤ r² predicate.
				theta := src.Float64() * 2 * math.Pi
				pts[i] = Point{X: qx + r*math.Cos(theta), Y: qy + r*math.Sin(theta)}
			}
			g.Insert(i, pts[i])
		}
		q := Point{X: qx, Y: qy}
		rr := r * r
		var brute []int
		for i, p := range pts {
			if p.DistSq(q) <= rr {
				brute = append(brute, i)
			}
		}
		sort.Ints(brute)
		got := g.Neighborhood(q, r)
		if len(got) != len(brute) {
			t.Fatalf("Neighborhood returned %v, brute force says %v (q=%v r=%v)", got, brute, q, r)
		}
		for i := range got {
			if got[i] != brute[i] {
				t.Fatalf("Neighborhood returned %v, brute force says %v (q=%v r=%v)", got, brute, q, r)
			}
		}
	})
}

// FuzzMinPairwiseDist fuzzes the gridded minimum-distance scan against the
// quadratic reference. The grid path minimises DistSq and takes a single
// root at the end; the brute path does the same, so the results must be
// bit-identical whichever path the size heuristic picks.
func FuzzMinPairwiseDist(f *testing.F) {
	f.Add(uint64(3), uint8(10), 50.0)
	f.Add(uint64(11), uint8(200), 50.0) // forces the grid path (n > 64)
	f.Add(uint64(42), uint8(130), 1e-6) // near-coincident cloud
	f.Add(uint64(123), uint8(90), 5e4)  // sparse: grid falls back to brute
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, side float64) {
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
		if src.Bernoulli(0.3) {
			pts[n-1] = pts[0] // duplicate point: minimum distance exactly 0
		}
		got := MinPairwiseDist(pts)
		want := minPairwiseBrute(pts)
		if got != want {
			t.Fatalf("n=%d side=%g: MinPairwiseDist=%x, brute=%x",
				n, side, math.Float64bits(got), math.Float64bits(want))
		}
	})
}
