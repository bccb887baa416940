package sinr

import (
	"math"
	"runtime"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// TestShardedDispatchAndGuards covers the stripe count: every deployment
// size runs the lattice, with defaultShardCount stripes clamped to the
// lattice's columns and occupied cells. The β guard and outlier geometry
// are rows of TestEvaluatorOracle.
func TestShardedDispatchAndGuards(t *testing.T) {
	// At sizes on both sides of 2048, where small deployments once
	// switched to an n×n matrix.
	t.Run("auto-threshold", func(t *testing.T) {
		for _, n := range []int{1, 2048, 2049} {
			ch, _, err := DenseBenchWorkload(n, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			f := withWorkers(NewFastChannel(ch, FastOptions{}), 1)
			if f.bidx == nil || len(f.bidx.shardCells) != stripeCount(f.bidx, defaultShardCount) {
				t.Errorf("n=%d: want the lattice with min(%d, columns, occupied cells) stripes", n, defaultShardCount)
			}
			f.Close()
		}
	})
	// The geometry, not an option, sets the count: one node, one stripe
	// per column of a 60-column line, 64 stripes of one or two columns on
	// an 80-column line, and no more stripes than occupied cells on
	// outlier geometry.
	t.Run("geometry", func(t *testing.T) {
		single, _, err := DenseBenchWorkload(1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name                         string
			ch                           *Channel
			stripes, columns, maxColumns int
		}{
			{"n1", single, 1, 1, 1},
			{"line300", oracleChannel(t, oracleScenario{layout: "line", n: 300}), 60, 60, 1},
			{"line400", oracleChannel(t, oracleScenario{layout: "line", n: 400}), 64, 80, 2},
			{"outlier", oracleChannel(t, oracleScenario{layout: "outlier", n: 40, seed: 16, offset: 1e4}), 8, 1002, 2},
		} {
			f := withWorkers(NewFastChannel(tc.ch), 1)
			bi := f.bidx
			f.Close()
			if got := len(bi.shardCells); got != tc.stripes || got != stripeCount(bi, defaultShardCount) || bi.spanX+1 != tc.columns {
				t.Errorf("%s: %d stripes over %d columns and %d occupied cells, want %d over %d",
					tc.name, got, bi.spanX+1, bi.cells.NumCells(), tc.stripes, tc.columns)
			}
			widest := 0
			for _, cells := range bi.shardCells {
				cols := map[int]bool{}
				for _, c := range cells {
					cx, _ := bi.cells.Coord(int(c))
					cols[cx] = true
				}
				widest = max(widest, len(cols))
			}
			if widest != tc.maxColumns {
				t.Errorf("%s: the widest stripe holds %d occupied columns, want %d", tc.name, widest, tc.maxColumns)
			}
		}
	})
}

// oracleChannel builds the channel of an oracle scenario's deployment.
func oracleChannel(t *testing.T, sc oracleScenario) *Channel {
	t.Helper()
	d := sc.deploy()
	ch, err := NewChannel(d.params, d.pos)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestShardedMillionNodeBudget is the scale acceptance test: a full slot
// evaluation at n = 10⁶ must complete on the lattice at its stripe count
// within the documented memory budget
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
	if got := len(f.bidx.shardCells); got != stripeCount(f.bidx, defaultShardCount) {
		t.Fatalf("n=10^6 has %d stripes, want min(%d, columns, occupied cells) = %d",
			got, defaultShardCount, stripeCount(f.bidx, defaultShardCount))
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
