package sinr

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// boundsVariants returns lattice evaluators with the certified pipeline
// pinned on (sparse pinned off) at one shard on one worker and four shards
// on four workers.
func boundsVariants(t testing.TB, ch *Channel) map[string]*FastChannel {
	variants := map[string]*FastChannel{
		"s1/1w": NewFastChannel(ch, FastOptions{Workers: 1, Shards: 1, SparseFactor: -1, BoundsFactor: 1}),
		"s4/4w": NewFastChannel(ch, FastOptions{Workers: 4, Shards: 4, SparseFactor: -1, BoundsFactor: 1}),
	}
	t.Cleanup(func() {
		for _, f := range variants {
			f.Close()
		}
	})
	return variants
}

// TestBoundsTierEquivalence is the dedicated differential test of the
// certified bounds in their target regime — dense transmitter sets up to
// and including all-transmit — on the canonical dense workload geometry.
// Slots are evaluated repeatedly on the same evaluators so later slots run
// on warm aggregates, and every decision must be bit-identical to the naive
// reference.
func TestBoundsTierEquivalence(t *testing.T) {
	const n = 400
	for _, k := range []int{n / 16, n / 4, n / 2, n - 8, n} {
		for seed := uint64(1); seed <= 3; seed++ {
			ch, tx, err := DenseBenchWorkload(n, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			variants := boundsVariants(t, ch)
			label := fmt.Sprintf("k=%d seed=%d", k, seed)
			for slot := 0; slot < 2; slot++ {
				assertEquivalent(t, ch, variants, tx, fmt.Sprintf("%s slot %d", label, slot))
			}
			for _, f := range variants {
				st := f.BoundsStats()
				if st.Slots == 0 || st.Receivers == 0 {
					if k < n { // all-transmit slots have no listeners to count
						t.Fatalf("%s: certified pipeline never engaged (stats %+v)", label, st)
					}
				}
				f.Close()
			}
		}
	}
}

// TestBoundsThresholdRefine plants receivers exactly on the β threshold —
// where the decode decision is decided by the last ulp of the exact
// floating-point arithmetic — and requires (a) the certificates to fall back
// to the exact evaluator for every planted receiver rather than guess, and
// (b) the emitted decisions to stay bit-identical to the naive reference.
// Receivers well inside and well outside the ambiguous band check that both
// certificates still fire, so the fallback stays the exception.
func TestBoundsThresholdRefine(t *testing.T) {
	p := DefaultParams(10)
	r := p.Range()

	t.Run("lone-transmitter-ring", func(t *testing.T) {
		// One transmitter; with no interference every receiver's SINR is
		// signal/N, so a receiver at distance exactly R sits exactly on β.
		pos := []geom.Point{
			{X: 0, Y: 0},          // transmitter
			{X: r, Y: 0},          // planted: exactly on threshold
			{X: -r, Y: 0},         // planted
			{X: 0, Y: r},          // planted
			{X: 0, Y: -r},         // planted
			{X: r / 2, Y: 0},      // decode-certifiable
			{X: 0, Y: r / 3},      // decode-certifiable
			{X: 2 * r, Y: 0},      // silence-certifiable
			{X: 2 * r, Y: 2 * r},  // silence-certifiable
			{X: -2 * r, Y: r / 2}, // silence-certifiable
		}
		const planted = 4
		ch, err := NewChannel(p, pos)
		if err != nil {
			t.Fatal(err)
		}
		for name, f := range boundsVariants(t, ch) {
			want := ch.SlotReceptions([]int{0})
			got := f.SlotReceptions([]int{0})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: node %d decoded %d, reference says %d", name, i, got[i].Sender, want[i].Sender)
				}
			}
			st := f.BoundsStats()
			if st.Refined < planted {
				t.Errorf("%s: %d receivers refined, want at least the %d planted on the threshold", name, st.Refined, planted)
			}
			if st.Refined >= st.Receivers {
				t.Errorf("%s: every receiver refined (%d/%d); certificates never fired", name, st.Refined, st.Receivers)
			}
		}
	})

	t.Run("interference-knife-edge", func(t *testing.T) {
		// Receiver at the origin, signal 8βN from tx1 at R/2, and tx2 placed
		// so the interference makes the exact SINR land exactly on β:
		// signal/(itf+N) = β ⟺ itf = signal/β - N = 7N.
		signal := p.Power / math.Pow(r/2, p.Alpha)
		itf := signal/p.Beta - p.Noise
		d2 := math.Cbrt(p.Power / itf)
		pos := []geom.Point{
			{X: 0, Y: 0},           // planted receiver, exactly on threshold
			{X: r / 2, Y: 0},       // tx1
			{X: -d2, Y: 0},         // tx2, interference tuned to the knife edge
			{X: r / 4, Y: 100},     // far listeners: silence-certifiable, and they
			{X: 100, Y: 100},       // add no interference that would detune the
			{X: 100 + r/3, Y: 100}, // knife edge
		}
		ch, err := NewChannel(p, pos)
		if err != nil {
			t.Fatal(err)
		}
		tx := []int{1, 2}
		for name, f := range boundsVariants(t, ch) {
			want := ch.SlotReceptions(tx)
			got := f.SlotReceptions(tx)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: node %d decoded %d, reference says %d", name, i, got[i].Sender, want[i].Sender)
				}
			}
			if st := f.BoundsStats(); st.Refined < 1 {
				t.Errorf("%s: knife-edge receiver was not refined (stats %+v)", name, st)
			}
		}
	})
}

// TestBoundsAdaptiveDispatch checks the lattice's three-way dispatch
// boundaries: the adaptive cost model must select the certified pipeline
// on a dense many-cell workload, must reject it when everyone transmits (no
// listeners, so the dense skip-scan is already optimal), and must leave
// genuinely sparse slots on the sender-centric path.
func TestBoundsAdaptiveDispatch(t *testing.T) {
	const n = 2000
	ch, tx, err := DenseBenchWorkload(n, n/4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("s%d", shards), func(t *testing.T) {
			opt := FastOptions{Workers: 1, Shards: shards}
			f := NewFastChannel(ch, opt)
			defer f.Close()

			f.SlotReceptions(tx)
			st := f.BoundsStats()
			if st.Slots != 1 {
				t.Fatalf("dense k=n/4 slot: certified pipeline evaluated %d slots, want 1", st.Slots)
			}
			if rate := st.RefineRate(); rate > 0.5 {
				t.Errorf("refine rate %.2f on the canonical dense workload; bounds too loose to pay off", rate)
			}

			// All-transmit: no listeners, the pipeline must decline.
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			f.SlotReceptions(all)
			if got := f.BoundsStats().Slots; got != st.Slots {
				t.Errorf("all-transmit slot took the certified pipeline (slots %d -> %d)", st.Slots, got)
			}

			// A handful of transmitters: the sparse path must keep priority.
			f.SlotReceptions(tx[:5])
			if got := f.BoundsStats().Slots; got != st.Slots {
				t.Errorf("sparse slot took the certified pipeline (slots %d -> %d)", st.Slots, got)
			}

			f.ResetBoundsStats()
			if got := f.BoundsStats(); got != (BoundsStats{}) {
				t.Errorf("ResetBoundsStats left %+v", got)
			}

			// A fork shares the immutable index but owns private counters.
			g := f.Fork()
			defer g.Close()
			g.SlotReceptions(tx)
			if g.bidx != f.bidx || g.bidx == nil {
				t.Fatal("fork does not share the parent's bounds index")
			}
			if got := g.Fork().BoundsStats(); got != (BoundsStats{}) {
				t.Errorf("fresh fork inherited counters %+v", got)
			}
			if got := f.BoundsStats().Slots; got != 0 {
				t.Errorf("fork evaluation bled into parent counters (slots=%d)", got)
			}

			// Forks taken before the parent ever evaluated a slot — the experiment
			// scheduler's pattern — must still share a single index build.
			cold := NewFastChannel(ch, opt)
			defer cold.Close()
			a, b := cold.Fork(), cold.Fork()
			defer a.Close()
			defer b.Close()
			a.SlotReceptions(tx)
			b.SlotReceptions(tx)
			if a.bidx == nil || a.bidx != b.bidx {
				t.Fatal("cold forks built separate bounds indexes")
			}
		})
	}
}

// TestBoundsBetaGuard pins the degenerate-β corner: with β barely above 1
// the decision-exactness slack argument does not hold, so the certificates
// must decline even when forced, and the lattice's dense scan must carry
// the slot.
func TestBoundsBetaGuard(t *testing.T) {
	p := DefaultParams(10)
	p.Beta = 1 + 1e-12
	src := rng.New(3)
	pos := make([]geom.Point, 80)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 40, Y: src.Float64() * 40}
	}
	ch, err := NewChannel(p, pos)
	if err != nil {
		t.Fatal(err)
	}
	var tx []int
	for i := 0; i < len(pos); i += 2 {
		tx = append(tx, i)
	}
	variants := boundsVariants(t, ch)
	assertEquivalent(t, ch, variants, tx, "beta-1 = 1e-12")
	for name, f := range variants {
		if st := f.BoundsStats(); st.Slots != 0 {
			t.Errorf("%s: certified pipeline engaged with beta-1 = 1e-12 (stats %+v)", name, st)
		}
	}
}

// TestBuildCandidatesMarkWraparound covers the sparse path's visit-stamp
// wraparound: after 2³² slots the generation counter wraps, the stale marks
// — which at that point hold the very stamp values the new generations will
// reuse — must be cleared, or ball members would be wrongly deduplicated
// away and receivers silently dropped. The test injects a near-wrap stamp
// state and checks both the emitted receptions and the rebuilt candidate
// set against a fresh evaluator.
func TestBuildCandidatesMarkWraparound(t *testing.T) {
	src := rng.New(0x77a9)
	const n = 150
	side := 4 * math.Sqrt(float64(n))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		t.Fatal(err)
	}
	var tx []int
	for i := 0; i < n; i += 6 {
		tx = append(tx, i)
	}
	f := NewFastChannel(ch, FastOptions{Workers: 1, SparseFactor: 1})
	defer f.Close()
	f.SlotReceptions(tx) // marks now carry stamp 1, the post-wrap generation

	// Jump the generation counter to the wrap boundary: the next slot
	// increments it to 0 and must take the reset branch.
	f.markGen = ^uint32(0)
	for slot := 0; slot < 3; slot++ {
		want := ch.SlotReceptions(tx)
		got := f.SlotReceptions(tx)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("slot %d after wraparound: node %d decoded %d, reference says %d",
					slot, r, got[r].Sender, want[r].Sender)
			}
		}
	}
	if f.markGen != 3 {
		t.Errorf("markGen = %d after wrap plus three slots, want 3", f.markGen)
	}

	fresh := NewFastChannel(ch, FastOptions{Workers: 1, SparseFactor: 1})
	defer fresh.Close()
	fresh.SlotReceptions(tx)
	got := append([]int(nil), f.candidates...)
	want := append([]int(nil), fresh.candidates...)
	sort.Ints(got)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("candidate set has %d members after wraparound, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate set diverged after wraparound at index %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestSparseCoverageEstimate is the property test guarding the adaptive
// sparse crossover: across density regimes and transmitter counts, the
// per-slot coverage estimate 1-exp(k·ln(1-p)) that useSparse compares
// against sparseCoverageMax must stay within sparseEstimateFactor (2.5×,
// documented at sparseCoverageMax) of the measured candidate-set coverage
// |∪ balls|/n whenever the measured coverage is large enough (≥ 5%) for
// the ratio to be meaningful. If the estimate rots — a changed culling
// radius, a changed area clamp — dense slots would silently take the
// scattered sparse path (or vice versa) and this test fails before the
// crossover constant does damage.
func TestSparseCoverageEstimate(t *testing.T) {
	const sparseEstimateFactor = 2.5
	const n = 400
	regimes := []struct {
		name       string
		sideFactor float64
		rangeR     float64
	}{
		{"dense", 2, 8},
		{"medium", 4, 8},
		{"sparse", 8, 8},
		{"short-range", 4, 4},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			for _, k := range []int{4, 20, n / 8, n / 4, n / 2} {
				var estSum, measSum float64
				const seeds = 5
				for seed := uint64(0); seed < seeds; seed++ {
					src := rng.New(0xc0ffee + seed)
					side := reg.sideFactor * math.Sqrt(float64(n))
					pos := make([]geom.Point, n)
					for i := range pos {
						pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
					}
					ch, err := NewChannel(DefaultParams(reg.rangeR), pos)
					if err != nil {
						t.Fatal(err)
					}
					f := NewFastChannel(ch, FastOptions{Workers: 1, SparseFactor: 1})
					tx := make([]int, 0, k)
					seen := make(map[int]bool, k)
					for len(tx) < k {
						id := src.Intn(n)
						if !seen[id] {
							seen[id] = true
							tx = append(tx, id)
						}
					}
					if math.IsInf(f.logBallMiss, -1) {
						f.Close()
						t.Skip("single ball covers the deployment; estimate saturates")
					}
					estSum += 1 - math.Exp(float64(k)*f.logBallMiss)
					f.buildCandidates(tx)
					measSum += float64(len(f.candidates)) / float64(n)
					f.Close()
				}
				est, meas := estSum/seeds, measSum/seeds
				if meas < 0.05 {
					continue
				}
				if ratio := est / meas; ratio > sparseEstimateFactor || ratio < 1/sparseEstimateFactor {
					t.Errorf("k=%d: estimated coverage %.3f vs measured %.3f (ratio %.2f exceeds %.1fx)",
						k, est, meas, est/meas, sparseEstimateFactor)
				}
			}
		})
	}
}
