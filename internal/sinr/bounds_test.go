package sinr

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

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
	for _, stripes := range []int{1, 4} {
		t.Run(fmt.Sprintf("s%d", stripes), func(t *testing.T) {
			f := withStripes(withWorkers(NewFastChannel(ch), 1), stripes)
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
			cold := withStripes(withWorkers(NewFastChannel(ch), 1), stripes)
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
	f := withWorkers(NewFastChannel(ch, FastOptions{SparseFactor: 1}), 1)
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

	fresh := withWorkers(NewFastChannel(ch, FastOptions{SparseFactor: 1}), 1)
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
					f := withWorkers(NewFastChannel(ch, FastOptions{SparseFactor: 1}), 1)
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
