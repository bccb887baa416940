package sinr

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// TestShardedDispatchAndGuards covers the regime's dispatch boundary: the
// automatic selection threshold. The β guard and outlier geometry are rows
// of TestEvaluatorOracle.
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
