package sinr

import (
	"math"
	"runtime"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// TestShardedDispatchAndGuards covers the shard-count resolution: every
// deployment size runs the lattice, with defaultShardCount shards unless
// FastOptions.Shards is positive. The β guard and outlier geometry are rows
// of TestEvaluatorOracle.
func TestShardedDispatchAndGuards(t *testing.T) {
	t.Run("auto-threshold", func(t *testing.T) {
		for _, tc := range []struct {
			opt, want int
		}{
			{0, defaultShardCount},
			{-1, defaultShardCount},
			{3, 3},
		} {
			if got := resolveShards(tc.opt); got != tc.want {
				t.Errorf("resolveShards(%d) = %d, want %d", tc.opt, got, tc.want)
			}
		}
		// The same through the constructor, at sizes on both sides of
		// 2048, where small deployments once switched to an n×n matrix.
		for _, n := range []int{1, 2048, 2049} {
			ch, _, err := DenseBenchWorkload(n, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			f := withWorkers(NewFastChannel(ch, FastOptions{}), 1)
			if f.Shards() != defaultShardCount || f.bidx == nil || f.bidx.shardCells == nil {
				t.Errorf("n=%d: %d shards, want the lattice with %d", n, f.Shards(), defaultShardCount)
			}
			f.Close()
		}
	})
}

// TestShardedMillionNodeBudget is the scale acceptance test: a full slot
// evaluation at n = 10⁶ must complete on the lattice at its default shard
// count within the documented memory budget
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
