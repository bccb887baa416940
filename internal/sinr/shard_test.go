package sinr

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// shardVariants returns sharded evaluators across the shard counts the
// acceptance criteria pin (S ∈ {1, 2, 4, 8}), at one and several workers,
// with the certified pipeline forced on, forced off (sharded dense scan)
// and left adaptive.
func shardVariants(t testing.TB, ch *Channel) map[string]*FastChannel {
	variants := map[string]*FastChannel{
		"s1/cert/1w":  withWorkers(NewFastChannel(ch, FastOptions{Shards: 1, SparseFactor: -1, BoundsFactor: 1}), 1),
		"s2/cert":     withWorkers(NewFastChannel(ch, FastOptions{Shards: 2, SparseFactor: -1, BoundsFactor: 1}), 4),
		"s4/cert":     withWorkers(NewFastChannel(ch, FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: 1}), 4),
		"s8/cert":     withWorkers(NewFastChannel(ch, FastOptions{Shards: 8, SparseFactor: -1, BoundsFactor: 1}), 4),
		"s4/adaptive": withWorkers(NewFastChannel(ch, FastOptions{Shards: 4, SparseFactor: -1}), 2),
		"s4/dense/1w": withWorkers(NewFastChannel(ch, FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: -1}), 1),
		"s8/dense":    withWorkers(NewFastChannel(ch, FastOptions{Shards: 8, SparseFactor: -1, BoundsFactor: -1}), 4),
		"s4/sparse":   withWorkers(NewFastChannel(ch, FastOptions{Shards: 4, SparseFactor: 1}), 2),
	}
	t.Cleanup(func() {
		for _, f := range variants {
			f.Close()
		}
	})
	return variants
}

// TestShardedEquivalence is the dedicated differential test of the sharded
// regime: across dense transmitter densities up to and including
// all-transmit, every shard count S ∈ {1, 2, 4, 8} — certified, dense and
// sparse pipelines, one and several workers — must reproduce the naive
// reference bit for bit. Bit-identity across S follows: every variant is
// held to the same reference.
func TestShardedEquivalence(t *testing.T) {
	const n = 400
	for _, k := range []int{n / 16, n / 4, n / 2, n - 8, n} {
		for seed := uint64(1); seed <= 3; seed++ {
			ch, tx, err := DenseBenchWorkload(n, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			variants := shardVariants(t, ch)
			label := fmt.Sprintf("k=%d seed=%d", k, seed)
			for slot := 0; slot < 2; slot++ {
				assertEquivalent(t, ch, variants, tx, fmt.Sprintf("%s slot %d", label, slot))
			}
			for name, f := range variants {
				if f.Shards() == 0 {
					t.Fatalf("%s %s: evaluator fell out of the sharded regime", label, name)
				}
				f.Close()
			}
		}
	}
}

// TestShardedThresholdRefine reruns the planted on-threshold geometries of
// TestBoundsThresholdRefine at every pinned shard count: receivers whose decode
// decision is decided by the last ulp must refine through the exact
// arithmetic (never be guessed from the certificates), receivers well clear
// of the threshold must certify, and every decision must match the naive
// reference.
func TestShardedThresholdRefine(t *testing.T) {
	p := DefaultParams(10)
	r := p.Range()

	t.Run("lone-transmitter-ring", func(t *testing.T) {
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
		for _, s := range []int{1, 2, 4, 8} {
			f := withWorkers(NewFastChannel(ch, FastOptions{Shards: s, SparseFactor: -1, BoundsFactor: 1}), 1)
			want := ch.SlotReceptions([]int{0})
			got := f.SlotReceptions([]int{0})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("S=%d: node %d decoded %d, reference says %d", s, i, got[i].Sender, want[i].Sender)
				}
			}
			st := f.BoundsStats()
			if st.Refined < planted {
				t.Errorf("S=%d: %d receivers refined, want at least the %d planted on the threshold", s, st.Refined, planted)
			}
			if st.Refined >= st.Receivers {
				t.Errorf("S=%d: every receiver refined (%d/%d); certificates never fired", s, st.Refined, st.Receivers)
			}
			f.Close()
		}
	})

	t.Run("interference-knife-edge", func(t *testing.T) {
		signal := p.Power / math.Pow(r/2, p.Alpha)
		itf := signal/p.Beta - p.Noise
		d2 := math.Cbrt(p.Power / itf)
		pos := []geom.Point{
			{X: 0, Y: 0},           // planted receiver, exactly on threshold
			{X: r / 2, Y: 0},       // tx1
			{X: -d2, Y: 0},         // tx2, interference tuned to the knife edge
			{X: r / 4, Y: 100},     // far listeners, spread across supercells
			{X: 100, Y: 100},       //
			{X: 100 + r/3, Y: 100}, //
		}
		ch, err := NewChannel(p, pos)
		if err != nil {
			t.Fatal(err)
		}
		tx := []int{1, 2}
		for _, s := range []int{1, 4, 8} {
			f := withWorkers(NewFastChannel(ch, FastOptions{Shards: s, SparseFactor: -1, BoundsFactor: 1}), 1)
			want := ch.SlotReceptions(tx)
			got := f.SlotReceptions(tx)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("S=%d: node %d decoded %d, reference says %d", s, i, got[i].Sender, want[i].Sender)
				}
			}
			if st := f.BoundsStats(); st.Refined < 1 {
				t.Errorf("S=%d: knife-edge receiver was not refined (stats %+v)", s, st)
			}
			f.Close()
		}
	})
}

// TestShardedDispatchAndGuards covers the regime's dispatch boundaries: the
// automatic selection threshold, the β guard (certificates decline, the
// sharded dense scan carries the slot, results still exact), and outlier
// geometry whose offset tables would exceed the cap.
func TestShardedDispatchAndGuards(t *testing.T) {
	t.Run("auto-threshold", func(t *testing.T) {
		for _, tc := range []struct {
			opt, n, want int
		}{
			{0, DefaultMatrixThreshold, 0},
			{0, DefaultMatrixThreshold + 1, defaultShardCount},
			{-1, DefaultMatrixThreshold + 1, defaultShardCount},
			{-1, 1, 0},
			{3, 100, 3},
		} {
			if got := resolveShards(tc.opt, tc.n); got != tc.want {
				t.Errorf("resolveShards(%d, %d) = %d, want %d", tc.opt, tc.n, got, tc.want)
			}
		}
		// The same boundary through the constructor: n =
		// DefaultMatrixThreshold gets the matrix, one node more the lattice.
		for _, tc := range []struct {
			n    int
			want string
		}{
			{DefaultMatrixThreshold, "matrix"},
			{DefaultMatrixThreshold + 1, "lattice"},
		} {
			ch, _, err := DenseBenchWorkload(tc.n, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			f := withWorkers(NewFastChannel(ch, FastOptions{}), 1)
			got := fmt.Sprintf("matrix=%v S=%d", f.mat != nil, f.Shards())
			switch {
			case f.mat != nil && f.Shards() == 0:
				got = "matrix"
			case f.mat == nil && f.Shards() == defaultShardCount:
				got = "lattice"
			}
			f.Close()
			if got != tc.want {
				t.Errorf("n=%d: %s, want %s", tc.n, got, tc.want)
			}
		}
	})

	t.Run("beta-guard", func(t *testing.T) {
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
		f := withWorkers(NewFastChannel(ch, FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: 1}), 1)
		defer f.Close()
		want := ch.SlotReceptions(tx)
		got := f.SlotReceptions(tx)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d decoded %d, reference says %d", i, got[i].Sender, want[i].Sender)
			}
		}
		if st := f.BoundsStats(); st.Slots != 0 {
			t.Errorf("certified pipeline engaged with beta-1 = 1e-12 (stats %+v)", st)
		}
		if f.Shards() == 0 {
			t.Error("beta guard must keep the sharded regime (dense scan), not demote it")
		}
	})

	t.Run("outlier-geometry-fallback", func(t *testing.T) {
		// Two clusters ~1e6 or ~3e10 apart: the per-offset tables would span
		// far past boundsMaxOffsets, so the lattice (Shards: 8) must build
		// none and fall back to the exact cell-culled scan, even with the
		// certificates forced; the matrix regime (Shards: 0) indexes the
		// same geometry for its sparse path. Both must match the reference
		// on every slot and allocate nothing once warm. At 3e10 the occupied
		// cell span exceeds the int32 range, which the index must not wrap.
		for _, off := range []float64{1e6, 3e10} {
			outlierGeometryFallback(t, off)
		}
	})
}

// outlierGeometryFallback runs the outlier-geometry-fallback case with the
// two clusters off apart on both axes.
func outlierGeometryFallback(t *testing.T, off float64) {
	src := rng.New(0x0071)
	pos := make([]geom.Point, 80)
	for i := range pos {
		o := 0.0
		if i%2 == 1 {
			o = off
		}
		pos[i] = geom.Point{X: o + src.Float64()*30, Y: o + src.Float64()*30}
	}
	ch, err := NewChannel(DefaultParams(10), pos)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{8, 0} {
		for _, sparse := range []int{1, -1} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("offset=%g Shards=%d SparseFactor=%d Workers=%d", off, shards, sparse, workers)
				f := withWorkers(NewFastChannel(ch, FastOptions{Shards: shards, SparseFactor: sparse, BoundsFactor: 1}), workers)
				if f.Shards() != shards || f.bidx.pwUB != nil || f.bidx.pwSuperUB != nil {
					t.Fatalf("%s: outlier geometry got S=%d, offset tables built: %v", label, f.Shards(), f.bidx.pwUB != nil)
				}
				var tx []int
				for slot := 0; slot < 6; slot++ {
					tx = tx[:0]
					for i := range pos {
						if src.Bernoulli(0.2) {
							tx = append(tx, i)
						}
					}
					want := ch.SlotReceptions(tx)
					got := f.SlotReceptions(tx)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s slot %d: node %d decoded %d, reference says %d",
								label, slot, i, got[i].Sender, want[i].Sender)
						}
					}
				}
				if allocs := testing.AllocsPerRun(20, func() { f.SlotReceptions(tx) }); allocs != 0 {
					t.Errorf("%s: slot allocates %.1f objects, want 0", label, allocs)
				}
				if st := f.BoundsStats(); st.Slots != 0 {
					t.Errorf("%s: certified pipeline engaged without offset tables (stats %+v)", label, st)
				}
				f.Close()
			}
		}
	}
}

// TestShardedForkSharing checks the fork contract in the sharded regime:
// forks share the immutable index (no rebuild), own
// private counters, and keep producing reference-identical receptions
// concurrently with the parent.
func TestShardedForkSharing(t *testing.T) {
	const n = 500
	ch, tx, err := DenseBenchWorkload(n, n/4, 11)
	if err != nil {
		t.Fatal(err)
	}
	parent := withWorkers(NewFastChannel(ch, FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: 1}), 2)
	defer parent.Close()
	parent.SlotReceptions(tx)

	fork := parent.Fork()
	defer fork.Close()
	if fork.Shards() != parent.Shards() {
		t.Fatalf("fork shard count %d, parent %d", fork.Shards(), parent.Shards())
	}
	if fork.bidx == nil || fork.bidx != parent.bidx {
		t.Fatal("fork does not share the parent's index")
	}
	if got := fork.BoundsStats(); got != (BoundsStats{}) {
		t.Errorf("fresh fork inherited counters %+v", got)
	}

	want := ch.SlotReceptions(tx)
	done := make(chan error, 2)
	for _, f := range []*FastChannel{parent, fork} {
		f := f
		go func() {
			for slot := 0; slot < 20; slot++ {
				got := f.SlotReceptions(tx)
				for r := range want {
					if got[r] != want[r] {
						done <- fmt.Errorf("slot %d: node %d decoded %d, want %d", slot, r, got[r].Sender, want[r].Sender)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedMediumEquivalence holds the sharded regime to the naive
// reference at a size where the supercell hierarchy genuinely engages
// (hundreds of occupied cells, multiple supercell rows) — the small-n
// differential wall cannot reach that shape. Skipped in -short.
func TestShardedMediumEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-n sharded differential test skipped in -short")
	}
	const n = 20000
	for _, k := range []int{n / 32, n / 4} {
		ch, tx, err := DenseBenchWorkload(n, k, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := ch.SlotReceptions(tx)
		for _, s := range []int{1, 8} {
			f := withWorkers(NewFastChannel(ch, FastOptions{Shards: s, SparseFactor: -1}), 4)
			got := f.SlotReceptions(tx)
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("n=%d k=%d S=%d: node %d decoded %d, reference says %d",
						n, k, s, r, got[r].Sender, want[r].Sender)
				}
			}
			f.Close()
		}
	}
}

// TestShardedMillionNodeBudget is the scale acceptance test: a full slot
// evaluation at n = 10⁶ must complete in the (automatically selected)
// sharded regime within the documented memory budget
// (ShardBytesPerNodeBudget heap bytes per node for the channel plus
// evaluator, measured via runtime.MemStats), and must actually decode
// frames. Skipped in -short.
func TestShardedMillionNodeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node budget test skipped in -short")
	}
	const n = 1_000_000
	src := rng.New(1)
	side := 4 * math.Sqrt(float64(n))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFastChannel(ch)
	defer f.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if f.Shards() != defaultShardCount {
		t.Fatalf("n=10^6 selected %d shards, want the automatic %d", f.Shards(), defaultShardCount)
	}
	perNode := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
	t.Logf("channel + sharded evaluator: %.1f heap bytes/node", perNode)
	if perNode > ShardBytesPerNodeBudget {
		t.Fatalf("%.1f heap bytes/node exceeds the documented budget of %d", perNode, ShardBytesPerNodeBudget)
	}

	tx := make([]int, 0, n/10)
	for i := 0; i < n; i += 10 {
		tx = append(tx, i)
	}
	rec := f.SlotReceptions(tx)
	decoded := 0
	for _, r := range rec {
		if r.Sender >= 0 {
			decoded++
		}
	}
	if decoded == 0 {
		t.Fatal("million-node slot decoded nothing")
	}
	st := f.BoundsStats()
	t.Logf("slot: k=%d decoded=%d certified-pipeline slots=%d refine=%.4f",
		len(tx), decoded, st.Slots, st.RefineRate())
}
