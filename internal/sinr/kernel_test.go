package sinr

import (
	"fmt"
	"math"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// powReference is the pre-rewrite arithmetic of ReceivedPower: the
// near-field clamp followed by a math.Pow path loss. The pow-free integer-α
// fast paths must reproduce it bit for bit.
func powReference(p Params, d float64) float64 {
	if d < 1 {
		d = 1
	}
	return p.Power / math.Pow(d, p.Alpha)
}

// TestReceivedPowerPowFree pins the integer-α multiplication fast paths of
// Params.ReceivedPower bit-identical to the math.Pow reference, for every
// fast-pathed exponent and for generic exponents (which still go through
// Pow), across adversarial and random distances: the clamp boundary, the
// overflow region where d^α saturates before or after the division, and
// magnitudes spanning the full exponent range.
func TestReceivedPowerPowFree(t *testing.T) {
	alphas := []float64{2, 3, 4, 2.5, 3.0000000001, 6}
	special := []float64{
		0, 0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.5, 2, 3,
		1e10, 5.6e102, math.Nextafter(5.6e102, math.Inf(1)), 1.34e154,
		math.Nextafter(1.34e154, math.Inf(1)), 1e300, math.MaxFloat64,
		math.Inf(1), math.NaN(), -0.5, // negative distances are clamped too
	}
	src := rng.New(0x90f7ee)
	for _, alpha := range alphas {
		p := Params{Alpha: alpha, Beta: 1.5, Noise: 1, Power: 3.375e3, Epsilon: 0.1}
		check := func(d float64) {
			t.Helper()
			got := p.ReceivedPower(d)
			want := powReference(p, d)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("alpha=%v d=%g: ReceivedPower=%g (%x), pow reference=%g (%x)",
					alpha, d, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, d := range special {
			check(d)
		}
		for i := 0; i < 20000; i++ {
			// Log-uniform magnitudes cover the whole double range; the
			// uniform band stresses the near-field clamp neighbourhood.
			check(math.Exp((src.Float64()*2 - 1) * 700))
			check(src.Float64() * 2)
		}
	}
}

// TestPairPowerKernelBitIdentical pins FastChannel's fused SoA kernel to
// the reference composition params.ReceivedPower(Point.Dist) on random
// deployments across fast-pathed and generic exponents. This is the
// invariant that lets every SoA hot loop (lattice and fallback chunks,
// bounds near expansion, churn matrix patches) replace the reference
// composition without changing a single reception decision.
func TestPairPowerKernelBitIdentical(t *testing.T) {
	src := rng.New(0x50a6e4)
	for _, alpha := range []float64{3, 4, 2.5, 5} {
		params := DefaultParams(12)
		params.Alpha = alpha
		params.Power = params.Beta * params.Noise * math.Pow(12, alpha)
		n := 60
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: src.Float64() * 40, Y: src.Float64() * 40}
		}
		// A couple of coincident and near-field pairs exercise the clamp.
		pos[1] = pos[0]
		pos[2] = geom.Point{X: pos[0].X + 0.3, Y: pos[0].Y}
		ch, err := NewChannel(params, pos)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFastChannel(ch, FastOptions{Workers: 1})
		for s := 0; s < n; s++ {
			for r := 0; r < n; r++ {
				got := f.pairPower(f.px[s], f.py[s], f.px[r], f.py[r])
				want := params.ReceivedPower(pos[s].Dist(pos[r]))
				if got != want {
					t.Fatalf("alpha=%v pair (%d,%d): pairPower=%x, reference=%x",
						alpha, s, r, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
		f.Close()
	}
}

// TestSlotReceptionsEquivalenceAlphaVariants runs the full differential
// harness — matrix/lattice × sparse/bounds/dense × worker counts — under every
// fast-pathed path-loss exponent and a generic (math.Pow) one, so the
// pow-free rewrite is held to the naive reference on whole-slot decisions,
// not just on isolated power values.
func TestSlotReceptionsEquivalenceAlphaVariants(t *testing.T) {
	for _, alpha := range []float64{3, 4, 2.5} {
		t.Run(fmt.Sprintf("alpha=%v", alpha), func(t *testing.T) {
			src := rng.New(0xa1fa + math.Float64bits(alpha))
			for c := 0; c < 20; c++ {
				n := 30 + src.Intn(90)
				side := 4 * math.Sqrt(float64(n))
				pos := make([]geom.Point, n)
				for i := range pos {
					pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
				}
				params := DefaultParams(5 + src.Float64()*15)
				r := math.Pow(params.Power/(params.Beta*params.Noise), 1/params.Alpha)
				params.Alpha = alpha
				params.Power = params.Beta * params.Noise * math.Pow(r, alpha)
				ch, err := NewChannel(params, pos)
				if err != nil {
					t.Fatal(err)
				}
				variants := fastVariants(t, ch)
				for slot := 0; slot < 3; slot++ {
					var tx []int
					for i := 0; i < n; i++ {
						if src.Bernoulli(0.2) {
							tx = append(tx, i)
						}
					}
					assertEquivalent(t, ch, variants, tx,
						fmt.Sprintf("alpha=%v case %d slot %d", alpha, c, slot))
				}
				for _, f := range variants {
					f.Close()
				}
			}
		})
	}
}

// TestGatherTotalsBlockedBitIdentical pins the blocked 4-receiver totals
// gather (matrixTotals4, the matrix paths' interference pass) to the scalar
// per-receiver tx-order sum bit for bit, across receiver-list lengths
// covering every remainder-lane count and transmitter sets of varied size
// and order. A final partial block fills its spare lanes with its last
// receiver, so every receiver is summed in a lane.
func TestGatherTotalsBlockedBitIdentical(t *testing.T) {
	src := rng.New(0x9a73e5)
	const n = 48
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 30, Y: src.Float64() * 30}
	}
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFastChannel(ch, FastOptions{Workers: 1, SparseFactor: -1})
	if f.mat == nil {
		t.Fatal("workload did not select the matrix regime")
	}
	for trial := 0; trial < 50; trial++ {
		nr := 1 + src.Intn(12)
		rs := make([]int, nr)
		for i := range rs {
			rs[i] = src.Intn(n)
		}
		k := 1 + src.Intn(n)
		tx := make([]int, k)
		for i := range tx {
			tx[i] = src.Intn(n)
		}
		row := func(i int) []float64 {
			r := rs[min(i, nr-1)]
			return f.mat[r*f.stride : r*f.stride+f.n]
		}
		blocked := make([]float64, nr+3)
		for i := 0; i < nr; i += 4 {
			blocked[i], blocked[i+1], blocked[i+2], blocked[i+3] = matrixTotals4(tx, row(i), row(i+1), row(i+2), row(i+3))
		}
		scalar := make([]float64, nr)
		for i := range rs {
			for _, s := range tx {
				scalar[i] += row(i)[s]
			}
			if math.Float64bits(blocked[i]) != math.Float64bits(scalar[i]) {
				t.Fatalf("trial %d receiver %d (of %d, k=%d): blocked=%x scalar=%x",
					trial, i, nr, k, math.Float64bits(blocked[i]), math.Float64bits(scalar[i]))
			}
		}
	}
	f.Close()
}

// TestOnThresholdCullBoundary is the adversarial case for the r²-domain
// comparisons: receivers are planted exactly on the culling-radius circle
// of the only transmitter (where the grid queries' DistSq ≤ r² predicate
// decides membership), one ulp inside and outside it, on the near-field
// clamp boundary d = 1, and exactly at the transmission range R (the
// decode boundary for a lone transmitter). Every fast variant must agree
// with the naive reference on all of them — the culling slack exists
// precisely so these borderline points fall through to the exact
// arithmetic.
func TestOnThresholdCullBoundary(t *testing.T) {
	params := DefaultParams(12)
	cr := math.Max(params.Range(), 1) * (1 + cullSlack) // == FastChannel.cullRadius
	r := params.Range()
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, 0) }
	pos := []geom.Point{
		{X: 0, Y: 0}, // the transmitter
		{X: cr, Y: 0},
		{X: up(cr), Y: 0},
		{X: down(cr), Y: 0},
		{X: -cr, Y: 0},
		{X: 0, Y: cr},
		{X: cr / math.Sqrt2, Y: cr / math.Sqrt2},
		{X: up(cr / math.Sqrt2), Y: up(cr / math.Sqrt2)},
		{X: r, Y: 0},
		{X: up(r), Y: 0},
		{X: down(r), Y: 0},
		{X: -r / math.Sqrt2, Y: r / math.Sqrt2},
		{X: 1, Y: 0}, // near-field clamp boundary
		{X: up(1), Y: 0},
		{X: down(1), Y: 0},
		{X: 0.25, Y: 0},
		{X: 40, Y: 40}, // far outside every radius
	}
	ch, err := NewChannel(params, pos)
	if err != nil {
		t.Fatal(err)
	}
	variants := fastVariants(t, ch)
	assertEquivalent(t, ch, variants, []int{0}, "lone transmitter on-threshold")
	// A second transmitter at the far corner adds interference without
	// moving the boundary receivers, so the β comparison itself goes
	// borderline at the certified tiers too.
	assertEquivalent(t, ch, variants, []int{0, 16}, "two transmitters on-threshold")
	// Boundary receivers transmitting: half-duplex plus culling interact.
	assertEquivalent(t, ch, variants, []int{0, 1, 8}, "boundary nodes transmitting")
}
