package sinr

import (
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

// TestPairPowerKernelBitIdentical pins FastChannel's path-loss row kernel,
// powerRow, to the reference composition params.ReceivedPower(Point.Dist)
// for every exponent case — the integer exponents' multiplication loops
// (α = 2, 3, 4) and the math.Pow loop (α = 2.5, 5) — on random
// deployments with coincident and sub-unit pairs (the near-field clamp).
// Every entry must equal the reference bit for bit, the returned total
// must equal the reference entries summed in row order, and nothing past
// the row may be written, for rows of every length from empty to the full
// deployment. This is the invariant that lets every pair loop (exact
// decodes, the certified pipeline's near expansion, the matrix build and
// its churn patch) use the kernel without changing a single reception
// decision.
func TestPairPowerKernelBitIdentical(t *testing.T) {
	src := rng.New(0x50a6e4)
	for _, alpha := range []float64{2, 2.5, 3, 4, 5} {
		params := DefaultParams(12)
		params.Alpha = alpha
		params.Power = params.Beta * params.Noise * math.Pow(12, alpha)
		// α = 2 fails Params.Validate, so the kernel runs on an evaluator
		// holding only the path-loss constants it reads.
		f := &FastChannel{power: params.Power, alpha: alpha, alphaK: alphaCase(alpha)}
		const n = 60
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: src.Float64() * 40, Y: src.Float64() * 40}
		}
		pos[1] = pos[0]
		pos[2] = geom.Point{X: pos[0].X + 0.3, Y: pos[0].Y}
		pos[3] = geom.Point{X: pos[0].X, Y: pos[0].Y - 0.99}
		xs, ys := make([]float64, n), make([]float64, n)
		for i, p := range pos {
			xs[i], ys[i] = p.X, p.Y
		}
		sentinel := math.Float64frombits(0x7ff8dead)
		row := make([]float64, n+1)
		for r := range pos {
			for m := 0; m <= n; m++ {
				for i := range row {
					row[i] = sentinel
				}
				got := f.powerRow(xs[:m], ys[:m], xs[r], ys[r], row)
				want := 0.0
				for s := 0; s < m; s++ {
					ref := params.ReceivedPower(pos[s].Dist(pos[r]))
					want += ref
					if math.Float64bits(row[s]) != math.Float64bits(ref) {
						t.Fatalf("alpha=%v receiver %d, row of %d: entry %d = %x, reference %x",
							alpha, r, m, s, math.Float64bits(row[s]), math.Float64bits(ref))
					}
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("alpha=%v receiver %d, row of %d: total %x, in-order reference sum %x",
						alpha, r, m, math.Float64bits(got), math.Float64bits(want))
				}
				for i := m; i < len(row); i++ {
					if math.Float64bits(row[i]) != math.Float64bits(sentinel) {
						t.Fatalf("alpha=%v receiver %d, row of %d: wrote entry %d past the row", alpha, r, m, i)
					}
				}
			}
		}
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
	f := withWorkers(NewFastChannel(ch, FastOptions{SparseFactor: -1}), 1)
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
			return f.mat[r*f.n : r*f.n+f.n]
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
