package sinr

import (
	"fmt"
	"math"
	"sort"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// This file implements churn support for the SINR evaluators: applying a
// committed topology epoch — batched node additions, removals and moves —
// to a live channel without rebuilding its indices from scratch.
//
// # Epoch lifecycle
//
// topology.Deployment batches mutations and CommitEpoch materialises them
// into an EpochDelta: the full post-epoch position slice plus the change
// structure (dirty slots, swap-remove relabels, added ids). The delta is
// self-contained — it owns a copy of the positions — so it can be applied
// to any evaluator family over the pre-epoch deployment, and replayed (the
// churn benchmark cycles a fixed delta pair).
//
// Applying a delta is a stop-the-world operation for an evaluator family:
// it must not overlap with slot evaluation on the evaluator or any of its
// forks, and forks taken before the epoch are invalidated (their private
// scratch is sized for the old node count). Fork the evaluator again after
// the apply; sim.Engine.ApplyEpoch calls ApplyEpoch between slots, which
// satisfies the contract by construction.
//
// # Incremental maintenance vs rebuild
//
// FastChannel.ApplyEpoch patches the indices it owns instead of rebuilding
// them:
//
//   - power matrix (matrix regime): only the rows and columns of dirty
//     slots are recomputed — O(dirty·n) math.Pow against the O(n²/2) of a
//     full rebuild — into a stride-addressed matrix whose stride grows with
//     headroom when additions outpace capacity;
//   - spatial grid (matrix regime and outlier fallback): dirty nodes are
//     moved/inserted and removed tail slots deleted, O(changed) bucket
//     operations;
//   - cell lattice: the shared cell index re-buckets the dirty nodes and
//     rebuilds its CSR in O(n + occupied cells) (geom.CellIndex.ApplyChurn)
//     while the per-offset power tables — the expensive math.Pow part — are
//     reused unchanged, since they depend only on the lattice span; the
//     per-cell transmitter aggregates are per-slot state and need no patch.
//     Only when a dirty node escapes the original lattice is the index
//     dropped and rebuilt, and the evaluator demotes to the grid fallback
//     if the stretched deployment exceeds the offset-table cap.
//
// Past ChurnRebuildFraction the patch stops paying: recomputing a dirty row
// and column costs about twice the per-node share of the symmetric full
// rebuild, so beyond ~half the nodes the rebuild is cheaper; ApplyEpoch
// falls back to a full rebuild at a quarter (margin for the patch's
// scattered writes and bucket churn). The incremental and rebuild paths are
// held bit-identical by the differential churn tests: every power is
// recomputed by the same formula from the same positions, so the patched
// evaluator's receptions match a from-scratch evaluator's exactly.

// ChurnRebuildFraction is the documented incremental-vs-rebuild crossover:
// when more than this fraction of the post-epoch deployment changed in one
// epoch (dirty slots plus removals), FastChannel.ApplyEpoch rebuilds its
// indices from scratch instead of patching them. Patching a dirty node
// recomputes its full matrix row and column (2n math.Pow without the
// symmetry pairing of the rebuild), so the break-even sits near 50% churn;
// a quarter leaves margin for the patch's scattered writes.
const ChurnRebuildFraction = 0.25

// Relabel records one swap-remove relabel of a committed epoch: the node in
// (pre-epoch) slot From now occupies slot To. Relabels are emitted in the
// order the removals were applied (descending removed slot) and must be
// consumed sequentially — later relabels may chain off earlier ones.
type Relabel struct {
	From, To int
}

// EpochDelta describes one committed churn epoch of a deployment. It is
// produced by topology.Deployment.CommitEpoch and consumed by
// Channel.ApplyEpoch / FastChannel.ApplyEpoch (and, one level up, by
// sim.Engine.ApplyEpoch, which also relabels the node automata).
//
// Node identity across an epoch: moves keep their id; removals swap-remove,
// so the node last in the pre-epoch numbering takes the removed slot (the
// Relabels list records the chain); additions append at the end. Dirty
// lists, in ascending order, every post-epoch slot whose position differs
// from the pre-epoch slot content — moved nodes, relabel targets and added
// ids — which is exactly the set of matrix rows/columns, grid buckets and
// cell-index entries an incremental apply must patch.
type EpochDelta struct {
	// OldN and NewN are the node counts before and after the epoch.
	OldN, NewN int
	// Dirty are the post-epoch ids whose slot position changed, ascending.
	Dirty []int
	// Relabels are the sequential swap-remove relabels of the epoch.
	Relabels []Relabel
	// Added are the post-epoch ids of nodes added this epoch, ascending.
	Added []int
	// Removed is the number of nodes removed this epoch.
	Removed int
	// Positions is the full post-epoch position slice, owned by the delta.
	Positions []geom.Point
}

// Validate checks the delta's internal consistency.
func (d *EpochDelta) Validate() error {
	if d == nil {
		return fmt.Errorf("sinr: nil epoch delta")
	}
	if d.NewN <= 0 {
		return fmt.Errorf("sinr: epoch delta leaves %d nodes", d.NewN)
	}
	if len(d.Positions) != d.NewN {
		return fmt.Errorf("sinr: epoch delta carries %d positions for %d nodes", len(d.Positions), d.NewN)
	}
	if d.NewN != d.OldN-d.Removed+len(d.Added) {
		return fmt.Errorf("sinr: epoch delta counts disagree: %d - %d + %d != %d",
			d.OldN, d.Removed, len(d.Added), d.NewN)
	}
	for _, id := range d.Dirty {
		if id < 0 || id >= d.NewN {
			return fmt.Errorf("sinr: epoch delta dirty id %d out of range [0, %d)", id, d.NewN)
		}
	}
	for _, rl := range d.Relabels {
		if rl.From < 0 || rl.From >= d.OldN || rl.To < 0 || rl.To >= rl.From {
			return fmt.Errorf("sinr: epoch delta relabel %d->%d out of range for %d nodes", rl.From, rl.To, d.OldN)
		}
	}
	for _, id := range d.Added {
		if id < 0 || id >= d.NewN {
			return fmt.Errorf("sinr: epoch delta added id %d out of range [0, %d)", id, d.NewN)
		}
	}
	return nil
}

// EpochApplier is the evaluator capability sim.Engine.ApplyEpoch requires:
// both the naive Channel (which just swaps its position slice) and
// FastChannel (which patches its indices incrementally) implement it.
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

// ApplyEpoch applies a committed epoch to the naive channel: the position
// slice is resized and overwritten from the delta. The naive evaluator
// recomputes everything per slot, so no further maintenance is needed; its
// post-epoch receptions are the reference the incremental FastChannel apply
// is held bit-identical to.
func (c *Channel) ApplyEpoch(d *EpochDelta) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if len(c.pos) != d.OldN {
		return fmt.Errorf("sinr: epoch delta for %d nodes applied to a %d-node channel", d.OldN, len(c.pos))
	}
	if cap(c.pos) >= d.NewN {
		c.pos = c.pos[:d.NewN]
	} else {
		c.pos = make([]geom.Point, d.NewN, d.NewN+d.NewN/4+8)
	}
	copy(c.pos, d.Positions)
	return nil
}

// epochApplied reports whether the channel already reflects the delta's
// post-epoch state: several evaluators of one fork family wrap the same
// channel, and whichever applies the epoch first updates it for all.
func (c *Channel) epochApplied(d *EpochDelta) bool {
	if len(c.pos) != d.NewN {
		return false
	}
	for _, id := range d.Dirty {
		if c.pos[id] != d.Positions[id] {
			return false
		}
	}
	return true
}

// ApplyEpoch applies a committed epoch to the fast evaluator, patching the
// affected power-matrix rows/columns, grid buckets, cell-index CSR entries
// and coverage model in O(dirty·n) instead of rebuilding the O(n²) state —
// falling back to a full rebuild past ChurnRebuildFraction. The underlying
// channel is updated too (at most once per epoch across a fork family).
//
// The apply is stop-the-world for the evaluator's fork family: it must not
// overlap slot evaluation anywhere in the family, forks taken before the
// epoch are invalid afterwards, and each family applies every epoch exactly
// once (through any one member). On the steady state of a fixed-size
// mobility workload the apply path performs no heap allocation; capacity
// growth (more nodes than ever before, new grid cells) allocates once.
func (f *FastChannel) ApplyEpoch(d *EpochDelta) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if f.n != d.OldN {
		return fmt.Errorf("sinr: epoch delta for %d nodes applied to a %d-node evaluator", d.OldN, f.n)
	}
	if !f.ch.epochApplied(d) {
		if err := f.ch.ApplyEpoch(d); err != nil {
			return err
		}
	}
	oldN := f.n
	f.pos = f.ch.pos
	f.n = d.NewN

	if float64(len(d.Dirty)+d.Removed) > ChurnRebuildFraction*float64(d.NewN) {
		f.syncSoAPositions(nil)
		f.rebuildAfterEpoch()
	} else {
		// Only the dirty slots changed position; the SoA mirror is patched
		// before the index patches below read coordinates through it.
		f.syncSoAPositions(d.Dirty)
		f.patchAfterEpoch(d, oldN)
	}
	f.resizeChurnScratch()
	f.setWorkers(f.workersReq)
	return nil
}

// patchAfterEpoch is the incremental path of ApplyEpoch.
//
//sinrlint:hotpath
func (f *FastChannel) patchAfterEpoch(d *EpochDelta, oldN int) {
	n := f.n
	// Power matrix: recompute the row and column of every dirty slot,
	// mirroring each value. Non-dirty pairs kept their positions, so their
	// entries are still exact; growth copies the valid block first.
	if f.mat != nil {
		if n > f.stride {
			stride := n + n/4 + 8
			//sinrlint:allow hotalloc amortized matrix growth, taken only when an epoch raises n past the stride headroom; steady-state churn stays alloc-free (churn alloc tests)
			grown := make([]float64, stride*stride)
			for r := 0; r < oldN; r++ {
				copy(grown[r*stride:r*stride+oldN], f.mat[r*f.stride:r*f.stride+oldN])
			}
			f.mat, f.stride = grown, stride
		}
		for _, i := range d.Dirty {
			ix, iy := f.px[i], f.py[i]
			ri := i * f.stride
			for s := 0; s < n; s++ {
				pw := f.pairPower(ix, iy, f.px[s], f.py[s])
				f.mat[ri+s] = pw
				f.mat[s*f.stride+i] = pw
			}
		}
	}
	// Spatial grid (the lattice holds none): tail slots beyond the new count
	// disappear, dirty slots move (or, for appended ids, insert).
	if f.grid != nil {
		for id := n; id < oldN; id++ {
			f.grid.Remove(id)
		}
		for _, id := range d.Dirty {
			if id < oldN {
				f.grid.Move(id, f.pos[id])
			} else {
				f.grid.Insert(id, f.pos[id])
			}
		}
	}
	if f.shards > 0 {
		f.patchCellIndex(d.Dirty)
	}
	// Coverage model: expand the box by the changed positions.
	for _, id := range d.Dirty {
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

// patchCellIndex brings the lattice's shared cell index up to the post-epoch
// positions: in place when the epoch stays inside the original lattice,
// which keeps the per-offset and supercell tables and the stripe function
// (newly occupied cells join the partition); otherwise the index is dropped
// and rebuilt. Other members of the fork family applying the same epoch
// find the index already current, and a holder that records outlier
// geometry keeps every member on the grid fallback.
func (f *FastChannel) patchCellIndex(dirty []int) {
	h := f.bholder
	h.mu.Lock()
	if bi := h.idx; bi != nil {
		if bi.cells.ApplyChurn(f.pos, dirty) {
			bi.appendCells()
		} else {
			h.built, h.idx = false, nil
		}
	}
	h.mu.Unlock()
	if !f.ensureShardIndex() {
		f.demoteToGrid()
	}
}

// rebuildAfterEpoch is the full-rebuild fallback of ApplyEpoch, taken past
// ChurnRebuildFraction (and exercising exactly the state a fresh evaluator
// would build, which is what the differential churn tests compare against).
func (f *FastChannel) rebuildAfterEpoch() {
	n := f.n
	if f.shards > 0 {
		// Cell lattice: the cell index is the only spatial state. A
		// post-epoch deployment stretched past the offset-table cap demotes
		// to the grid fallback instead.
		f.bholder.invalidate()
		if !f.ensureShardIndex() {
			f.demoteToGrid()
		}
		f.box = geom.BoundingBox(f.pos)
		f.updateCoverageModel()
		return
	}
	f.buildGrid()
	if f.mat != nil {
		if n > f.stride {
			f.stride = n + n/4 + 8
			f.mat = make([]float64, f.stride*f.stride)
		}
		for r := 0; r < n; r++ {
			rx, ry := f.px[r], f.py[r]
			for s := r; s < n; s++ {
				pw := f.pairPower(rx, ry, f.px[s], f.py[s])
				f.mat[r*f.stride+s] = pw
				f.mat[s*f.stride+r] = pw
			}
		}
	}
	f.box = geom.BoundingBox(f.pos)
	f.updateCoverageModel()
}

// resizeChurnScratch resizes the per-evaluator slot scratch to the
// post-epoch node count and restores the all-(-1) reception invariant.
func (f *FastChannel) resizeChurnScratch() {
	n := f.n
	if n > cap(f.out) {
		f.out = make([]Reception, n)
	} else {
		f.out = f.out[:n]
	}
	for i := range f.out {
		f.out[i].Sender = -1
	}
	for w := range f.decoded {
		f.decoded[w] = f.decoded[w][:0]
	}
	if n > cap(f.isTx) {
		f.isTx = make([]bool, n)
	} else {
		prev := len(f.isTx)
		f.isTx = f.isTx[:n]
		for i := prev; i < n; i++ {
			f.isTx[i] = false
		}
	}
	// Visit stamps re-exposed by a shrink-then-grow sequence could collide
	// with a live generation, so the grown region is always zeroed.
	if n > cap(f.mark) {
		f.mark = make([]uint32, n)
	} else {
		prev := len(f.mark)
		f.mark = f.mark[:n]
		for i := prev; i < n; i++ {
			f.mark[i] = 0
		}
	}
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
	// A fixed set of movers, each jittered by up to half a culling-grid cell
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
	deltas[0] = &EpochDelta{OldN: n, NewN: n, Dirty: dirty, Positions: away}
	back := make([]geom.Point, n)
	copy(back, home)
	deltas[1] = &EpochDelta{OldN: n, NewN: n, Dirty: append([]int(nil), dirty...), Positions: back}
	return ch, deltas, nil
}
