package sinr

// Mobility epochs: the steady-state apply path allocates nothing, malformed
// deltas are rejected and a node that leaves the lattice rectangle rebuilds
// the shared index. TestEvaluatorOracle holds patched evaluators and their
// forks to the naive channel.

import (
	"slices"
	"testing"

	"sinrmac/internal/geom"
)

// TestChurnApplyAllocFree pins the benchmark acceptance property: on a
// steady-state mobility cycle the incremental apply path performs zero heap
// allocations, at several shard counts, including the cell-index patch and
// the shard-partition append.
func TestChurnApplyAllocFree(t *testing.T) {
	for _, reg := range []struct {
		name string
		opts FastOptions
	}{
		{"shard", FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: 1}},
		{"shard/s1", FastOptions{Shards: 1, SparseFactor: -1, BoundsFactor: 1}},
	} {
		t.Run(reg.name, func(t *testing.T) {
			const n, moved = 1000, 10
			ch, deltas, err := ChurnBenchWorkload(n, moved, 7)
			if err != nil {
				t.Fatal(err)
			}
			f := withWorkers(NewFastChannel(ch, reg.opts), 1)
			defer f.Close()
			// Warm every bucket/arena the cycle will touch.
			tx := make([]int, 0, n/2)
			for i := 0; i < n; i += 2 {
				tx = append(tx, i)
			}
			f.SlotReceptions(tx)
			for cycle := 0; cycle < 2; cycle++ {
				for _, d := range deltas {
					if err := f.ApplyEpoch(d); err != nil {
						t.Fatal(err)
					}
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(50, func() {
				if err := f.ApplyEpoch(deltas[i%2]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state ApplyEpoch allocates %.1f times per op, want 0", allocs)
			}
			// The patched evaluator still matches the naive reference.
			if !slices.Equal(f.SlotReceptions(tx), ch.SlotReceptions(tx)) {
				t.Fatal("the patched evaluator diverges from the naive channel")
			}
		})
	}
}

// TestChurnDeltaValidate covers EpochDelta's checks against the node count
// and the evaluators' rejection of a mismatched delta, which leaves them
// unchanged.
func TestChurnDeltaValidate(t *testing.T) {
	var nilDelta *EpochDelta
	if err := nilDelta.Validate(3); err == nil {
		t.Fatal("nil delta validated")
	}
	if err := (&EpochDelta{Positions: make([]geom.Point, 2)}).Validate(3); err == nil {
		t.Fatal("position/count mismatch validated")
	}
	for _, id := range []int{7, 3, -1} {
		if err := (&EpochDelta{Dirty: []int{id}, Positions: make([]geom.Point, 3)}).Validate(3); err == nil {
			t.Fatalf("out-of-range dirty id %d validated", id)
		}
	}
	if err := (&EpochDelta{Dirty: []int{0, 2}, Positions: make([]geom.Point, 3)}).Validate(3); err != nil {
		t.Fatalf("well-formed delta rejected: %v", err)
	}
	pos := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}}
	ch, err := NewChannel(DefaultParams(10), pos)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFastChannel(ch)
	defer f.Close()
	far := make([]geom.Point, 5)
	for i := range far {
		far[i] = geom.Point{X: 100 * float64(i), Y: 0}
	}
	wrongN := &EpochDelta{Dirty: []int{0}, Positions: far}
	if err := f.ApplyEpoch(wrongN); err == nil {
		t.Fatal("ApplyEpoch accepted a delta for the wrong node count")
	}
	if err := ch.ApplyEpoch(wrongN); err == nil {
		t.Fatal("Channel.ApplyEpoch accepted a delta for the wrong node count")
	}
	badID := &EpochDelta{Dirty: []int{2}, Positions: far[:2]}
	if err := f.ApplyEpoch(badID); err == nil {
		t.Fatal("ApplyEpoch accepted an out-of-range dirty id")
	}
	for i, p := range ch.Positions() {
		if p != pos[i] {
			t.Fatalf("rejected delta moved node %d to %v", i, p)
		}
	}
	if tx := []int{0}; !slices.Equal(f.SlotReceptions(tx), ch.SlotReceptions(tx)) {
		t.Fatal("the evaluator diverges from the naive channel after rejected deltas")
	}
}

// TestChurnShardLatticeEscape covers the lattice's two outcomes for
// an epoch that sends a node out of the cell index's lattice rectangle. The
// fork family rebuilds its shared index inside ApplyEpoch and stays
// sharded: a moderate escape keeps the offset tables and the certified
// tier; an escape that stretches the lattice past the tables' cap drops
// them, and the certificates decline. Either way the receptions of the
// parent and its pre-epoch fork match the naive channel.
func TestChurnShardLatticeEscape(t *testing.T) {
	refs := map[oracleScenario]*oracleRef{}
	for _, tc := range []struct {
		name   string
		escape float64
		tables string
	}{
		{"rebuild", 30, "built"},
		{"demote", 3e6, "none"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkOracle(t, oracleScenario{layout: "line", n: 25, seed: 21, shards: 4, pin: "certified",
				workers: 1, fork: "pre", epochs: 1, escape: tc.escape, tables: tc.tables}, refs)
		})
	}
}
