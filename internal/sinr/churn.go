package sinr

import (
	"fmt"
	"math"
	"sort"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// This file implements mobility for the SINR evaluators: applying a
// committed topology epoch — a batch of node moves over the fixed node set
// — to a live channel without rebuilding its indices from scratch.
//
// # Epoch lifecycle
//
// topology.Deployment batches moves and CommitEpoch materialises them into
// an EpochDelta: the full post-epoch position slice plus the ids of the
// nodes that moved. Node ids never change. The delta is self-contained —
// it owns a copy of the positions — so it can be applied to any evaluator
// family over the deployment, and replayed (the churn benchmark cycles a
// fixed delta pair).
//
// Applying a delta is a stop-the-world operation for an evaluator family:
// it must not overlap with slot evaluation on the evaluator or any of its
// forks, and each member that keeps evaluating must apply the epoch (its
// coverage estimate and cached index handle are private). Fork the
// evaluator again after the apply, or apply the delta to every member;
// sim.Engine.ApplyEpoch calls ApplyEpoch between slots, which satisfies
// the contract by construction.
//
// # Incremental maintenance
//
// FastChannel.ApplyEpoch patches the index it owns instead of rebuilding
// it: the shared cell index re-buckets the moved nodes and rebuilds its
// CSR in O(n + occupied cells) (geom.CellIndex.ApplyChurn) while the
// lattice's per-offset power tables — the expensive math.Pow part — are
// reused unchanged, since they depend only on the lattice span; the
// per-cell transmitter aggregates are per-slot state and need no patch.
// Only when a moved node leaves the original lattice is the index dropped
// and rebuilt; a lattice stretched past the offset-table cap then builds
// no tables.
//
// The evaluator oracle's epoch rows hold the patch bit-identical to the
// naive channel, storm epochs that move half the nodes included: every
// power is recomputed by the same formula from the same positions, so the
// patched evaluator's receptions match a fresh evaluator's exactly.

// EpochDelta describes one committed mobility epoch of a deployment. It is
// produced by topology.Deployment.CommitEpoch and consumed by
// Channel.ApplyEpoch and FastChannel.ApplyEpoch (and, one level up, by
// sim.Engine.ApplyEpoch). The node set is fixed: every node keeps its id,
// and Dirty lists, in ascending order, the nodes whose position changed —
// exactly the coordinates and cell-index entries an incremental apply must
// patch.
type EpochDelta struct {
	// Dirty are the ids of the nodes that moved, ascending.
	Dirty []int
	// Positions is the full post-epoch position slice, owned by the delta.
	Positions []geom.Point
}

// Validate checks the delta against an n-node evaluator: one position per
// node, and every dirty id in range with its position within NewChannel's
// bounds.
func (d *EpochDelta) Validate(n int) error {
	if d == nil {
		return fmt.Errorf("sinr: nil epoch delta")
	}
	if len(d.Positions) != n {
		return fmt.Errorf("sinr: epoch delta carries %d positions for %d nodes", len(d.Positions), n)
	}
	for _, id := range d.Dirty {
		if id < 0 || id >= n {
			return fmt.Errorf("sinr: epoch delta dirty id %d out of range [0, %d)", id, n)
		}
		if err := checkPosition(id, d.Positions[id]); err != nil {
			return err
		}
	}
	return nil
}

// EpochApplier is the evaluator capability sim.Engine.ApplyEpoch requires:
// both the naive Channel (which copies the moved positions) and FastChannel
// (which patches its indices incrementally) implement it. A rejected delta
// leaves the evaluator unchanged.
type EpochApplier interface {
	ChannelEvaluator
	// ApplyEpoch applies a committed epoch. It must not be called
	// concurrently with SlotReceptions on the evaluator or any fork of it.
	ApplyEpoch(d *EpochDelta) error
}

var (
	_ EpochApplier = (*Channel)(nil)
	_ EpochApplier = (*FastChannel)(nil)
)

// ApplyEpoch applies a committed epoch to the naive channel: the dirty
// nodes' positions are overwritten in place from the delta. Every other
// position is unchanged by the delta's contract and is not read, which
// keeps the apply and its validation O(dirty). The naive evaluator
// recomputes everything per slot, so no further maintenance is needed; its
// post-epoch receptions are the reference the incremental FastChannel
// apply is held bit-identical to. Applying the same delta twice is
// harmless, which lets every FastChannel of a fork family forward the
// epoch to their shared channel.
func (c *Channel) ApplyEpoch(d *EpochDelta) error {
	if err := d.Validate(len(c.pos)); err != nil {
		return err
	}
	for _, id := range d.Dirty {
		c.pos[id] = d.Positions[id]
	}
	return nil
}

// ApplyEpoch applies a committed epoch to the fast evaluator, patching the
// moved nodes' coordinates, the cell-index CSR and the coverage model in
// O(n + occupied cells) instead of rebuilding the index and its tables.
// The underlying channel is updated too.
//
// The apply is stop-the-world for the evaluator's fork family: it must not
// overlap slot evaluation anywhere in the family. On the steady state of a
// mobility workload the apply path performs no heap allocation; a cell
// first occupied, or a node leaving the lattice, allocates once.
func (f *FastChannel) ApplyEpoch(d *EpochDelta) error {
	if err := f.ch.ApplyEpoch(d); err != nil {
		return err
	}
	f.patchAfterEpoch(d.Dirty)
	return nil
}

// patchAfterEpoch is the incremental path of ApplyEpoch.
//
//sinrlint:hotpath
func (f *FastChannel) patchAfterEpoch(dirty []int) {
	for _, id := range dirty {
		p := f.pos[id]
		f.px[id] = p.X
		f.py[id] = p.Y
	}
	f.patchCellIndex(dirty)
	// Coverage model: expand the box by the changed positions.
	for _, id := range dirty {
		p := f.pos[id]
		if p.X < f.box.Min.X {
			f.box.Min.X = p.X
		}
		if p.Y < f.box.Min.Y {
			f.box.Min.Y = p.Y
		}
		if p.X > f.box.Max.X {
			f.box.Max.X = p.X
		}
		if p.Y > f.box.Max.Y {
			f.box.Max.Y = p.Y
		}
	}
	f.updateCoverageModel()
}

// patchCellIndex brings the shared cell index up to the post-epoch
// positions: in place when the epoch stays inside the original lattice,
// which keeps the lattice's per-offset and supercell tables and its stripe
// function (newly occupied cells join the partition); otherwise the index
// is dropped and rebuilt. Other members of the fork family applying the
// same epoch find the index already current.
func (f *FastChannel) patchCellIndex(dirty []int) {
	h := f.bholder
	h.mu.Lock()
	if bi := h.idx; bi != nil {
		if bi.cells.ApplyChurn(f.pos, dirty) {
			bi.appendCells()
		} else {
			h.idx = nil
		}
	}
	h.mu.Unlock()
	f.ensureIndex()
}

// ChurnBenchWorkload builds the churn benchmark workload behind the
// churn-apply entries of BENCH_macbench.json: n nodes at BenchWorkload's
// canonical density and a replayable pair of mobility epochs that jitter a
// fixed set of `moved` nodes away from their home positions and back. The
// deltas are constructed directly (no topology round trip) so the benchmark
// loop measures nothing but the evaluator's apply path; cycling A, B, A, …
// keeps the channel's state bounded, and because applying an EpochDelta is
// idempotent the cycle may start from either phase.
func ChurnBenchWorkload(n, moved int, seed uint64) (*Channel, [2]*EpochDelta, error) {
	var deltas [2]*EpochDelta
	if moved <= 0 || moved > n {
		return nil, deltas, fmt.Errorf("sinr: ChurnBenchWorkload needs 0 < moved <= n, got %d of %d", moved, n)
	}
	src := rng.New(seed)
	side := 4 * math.Sqrt(float64(n))
	home := make([]geom.Point, n)
	for i := range home {
		home[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}
	ch, err := NewChannel(DefaultParams(12), home)
	if err != nil {
		return nil, deltas, err
	}
	// A fixed set of movers, each jittered by up to half a culling cell
	// so most moves change buckets without tearing the deployment apart.
	seen := make(map[int]bool, moved)
	dirty := make([]int, 0, moved)
	for len(dirty) < moved {
		id := src.Intn(n)
		if !seen[id] {
			seen[id] = true
			dirty = append(dirty, id)
		}
	}
	sort.Ints(dirty)
	away := make([]geom.Point, n)
	copy(away, home)
	for _, id := range dirty {
		angle := src.Float64() * 2 * math.Pi
		r := 0.5 + 2*src.Float64()
		away[id] = geom.Point{X: home[id].X + r*math.Cos(angle), Y: home[id].Y + r*math.Sin(angle)}
	}
	deltas[0] = &EpochDelta{Dirty: dirty, Positions: away}
	back := make([]geom.Point, n)
	copy(back, home)
	deltas[1] = &EpochDelta{Dirty: append([]int(nil), dirty...), Positions: back}
	return ch, deltas, nil
}
