package sinr

import (
	"sync"
	"sync/atomic"

	"sinrmac/internal/geom"
)

// This file holds the certified interference bounds of FastChannel's cell
// lattice (shard.go): the cell decomposition, the per-offset power-bound
// tables, the certificates that turn them into exact decode decisions, and
// their instrumentation. The lattice emits a receiver's decision directly
// whenever conservative interference bounds already determine it, and
// falls back to the exact per-receiver arithmetic (identical to the dense
// scan) only inside the thin ambiguous band around the SINR threshold β.
//
// # Structure
//
// The deployment is decomposed once into square cells of side cullRadius
// (geom.CellIndex, the evaluator's one spatial index). Per slot, the
// transmitter set is aggregated per cell in O(k): a transmitter count and a
// CSR list per occupied cell. Because received power is a monotone function
// of distance, the total interference a receiver in cell rc observes from
// the transmitters of cell tc is bounded by
//
//	cnt(tc)·pw(dmax(rc,tc)) <= Σ <= cnt(tc)·pw(dmin(rc,tc))
//
// where dmin/dmax are the conservative cell-pair distance bounds of
// geom.CellOffsetDistBounds. Those depend only on the integer lattice
// offset, so pw(dmin)/pw(dmax) are precomputed once per deployment into
// per-offset tables and each (receiver cell, transmitter cell) pair costs
// two table lookups; the lattice adds the same tables one level up, per
// supercell offset. Cells whose distance lower bound does not exceed
// cullRadius are "near": only they can contain a decodable sender (beyond
// cullRadius every received power is provably below cullPower), so near
// cells are expanded exactly per receiver while far cells contribute only
// their aggregate bounds.
//
// # Decision exactness
//
// The bounds never produce an approximate value: the only output is the
// decode decision (Reception.Sender), and a decision is emitted directly
// only when it is provably identical to what the exact evaluator computes.
// Since β > 1, at most one sender can decode at a receiver, and that sender
// must be the strongest one, which lies in a near cell and is found exactly
// during near expansion (power p*, identity s*). With S the true real
// interference total, the exact path's floating-point total Ŝ satisfies
// |Ŝ-S|/S <= (k-1)·ulp/2 up to second order; the bounds are widened
// multiplicatively by slack ε_k = 4·2⁻⁵²·(k+64) — covering both that
// summation error and the rounding of the bound arithmetic itself — so that
// loW <= Ŝ <= hiW holds for the FP sum the exact path would compute, in any
// summation order. Then:
//
//   - decode is certified when p* >= β·(1+ε_k)·(hiW - p* + N): the exact
//     path's SINR for s* is at least β, and no other sender can reach β
//     (its interference includes p*, forcing its ratio below 1);
//   - silence is certified when pMax < β·(1-ε_k)·(max(0, loW-pMax) + N)
//     with pMax = max(p*, far-cell power upper bound): the SINR ratio is
//     monotone in the signal, so every sender's exact ratio stays below β.
//
// If neither certificate fires — the receiver sits within the bounds' gap
// of the threshold — the receiver is refined: re-evaluated with the exact
// arithmetic (same power kernel, same tx-order summation), so the output is
// bit-identical to Channel.SlotReceptions in every case. Ties for the
// strongest power can never certify (the rival's power alone pushes the
// bound past the certificate) and therefore also refine.
//
// The ε_k slack argument additionally needs β itself to clear 1 by more
// than the accumulated rounding; boundsBetaMin guards that degenerate
// corner by declining the certificates (Params.Validate already requires
// β > 1).

// boundsBetaMin is the minimum β-1 for which the certificates are enabled:
// the decision-exactness argument needs the SINR threshold to exceed 1 by
// more than the floating-point slack ε_k, and 1e-9 leaves six orders of
// magnitude of margin over ε_k at k = 10⁶.
const boundsBetaMin = 1e-9

// boundsDistPad is the relative padding applied when the per-offset power
// tables are built: upper-bound powers are evaluated at dmin·(1-pad) and
// lower-bound powers at dmax·(1+pad), so the handful of ulps of rounding in
// the distance and power computations can never make a table entry
// non-conservative.
const boundsDistPad = 1e-12

// boundsSafety is the factor by which the certified pipeline's estimated
// slot cost must undercut the dense scan's before the adaptive dispatch
// selects it;
// the margin absorbs the estimate's uniformity assumption and the (not
// estimated) exact-refine fraction.
const boundsSafety = 2.0

// boundsOffsetsPerCell and boundsMinOffsets cap the per-offset power
// tables relative to occupancy: a lattice whose (2·spanX+1)·(2·spanY+1)
// offset tables would exceed boundsOffsetsPerCell entries per occupied cell
// (and boundsMinOffsets entries, 2 × 16 KiB, which small deployments may
// always spend) builds no tables and declines the certificates, so its
// dense slots take the exact cell-culled scan. Table memory thus stays
// O(occupied cells) however far apart outlier clusters sit. A filled
// rectangle of cells needs about 4 entries per cell; every uniform
// deployment the repo runs needs 3.8–4.0.
const (
	boundsOffsetsPerCell = 16
	boundsMinOffsets     = 1 << 10
)

// BoundsStats snapshots the certified pipeline's instrumentation counters.
// The refine rate — the fraction of bounds-evaluated receivers whose
// decision the bounds could not certify — is the pipeline's effectiveness
// measure: certified receivers cost O(near transmitters), refined ones pay
// the full O(k) exact evaluation on top.
type BoundsStats struct {
	// Slots is the number of slots the certified pipeline evaluated.
	Slots uint64
	// Receivers is the number of listening receivers those slots evaluated.
	Receivers uint64
	// Refined is how many of those receivers fell back to the exact
	// evaluator because neither certificate fired.
	Refined uint64
}

// RefineRate returns Refined/Receivers, or 0 when nothing was evaluated.
func (s BoundsStats) RefineRate() float64 {
	if s.Receivers == 0 {
		return 0
	}
	return float64(s.Refined) / float64(s.Receivers)
}

// BoundsStats returns the pipeline's counters accumulated since the evaluator
// was created (or since ResetBoundsStats). It is safe to call concurrently
// with slot evaluation; a concurrent read observes some recent state.
func (f *FastChannel) BoundsStats() BoundsStats {
	return BoundsStats{
		Slots:     atomic.LoadUint64(&f.boundsSlots),
		Receivers: atomic.LoadUint64(&f.boundsReceivers),
		Refined:   atomic.LoadUint64(&f.boundsRefined),
	}
}

// ResetBoundsStats zeroes the pipeline's counters; benchmark drivers call it
// between cases so each case reports its own refine rate. Forks start with
// zeroed counters of their own.
func (f *FastChannel) ResetBoundsStats() {
	atomic.StoreUint64(&f.boundsSlots, 0)
	atomic.StoreUint64(&f.boundsReceivers, 0)
	atomic.StoreUint64(&f.boundsRefined, 0)
}

// boundsIndex is the evaluator's shared spatial state: the cell
// decomposition, the near offsets, the shard partition and the per-offset
// power-bound tables of the cells and of the supercells above them. It is
// built once per fork family and mutated only by mobility epochs, which
// re-bucket the cell index and append newly occupied cells to the
// partition.
type boundsIndex struct {
	cells *geom.CellIndex
	// pwUB/pwLB bound the received power between any point pair of two
	// cells at lattice offset (dx, dy), indexed by
	// (dx+spanX)·(2·spanY+1) + dy+spanY. They, nearOff and the supercell
	// tables are nil when the extent exceeds the cap of
	// boundsOffsetsPerCell.
	pwUB, pwLB []float64
	// nearOff flags the offsets whose distance lower bound does not exceed
	// cullRadius: only such cells can contain a decodable sender, and they
	// are expanded exactly. nearDX/nearDY list the same offsets (at most
	// 21, all within the 5×5 neighbourhood); the dense scan probes them to
	// cull whole cells.
	nearOff        []bool
	nearDX, nearDY []int32
	// spanX, spanY is the lattice extent at build time. A successful
	// in-place churn patch never changes it, so the tables and the stripe
	// function shard(cx) = cx·S/(spanX+1) stay valid across epochs.
	spanX, spanY int
	// Supercell lattice dimensions: cell (cx, cy) lives in supercell
	// (cx/shardSuperSize)·superH + cy/shardSuperSize, a dense id in
	// [0, superW·superH). Zero without tables.
	superW, superH int
	// Per-supercell-offset power bounds, the coarse analogue of pwUB/pwLB:
	// valid for any point pair of two supercells at lattice offset
	// (dx, dy), indexed by (dx+superW-1)·(2·superH-1) + dy+superH-1.
	pwSuperUB, pwSuperLB []float64
	// shardCells[s] lists the dense cell ids of shard s; the per-shard
	// receiver chunks iterate exactly one list each. Its length is the
	// evaluator's shard count clamped to the lattice's columns and occupied
	// cells, so more stripes than either never cost memory.
	shardCells [][]int32
	cellCount  int // cells assigned to a shard so far (== NumCells between epochs)
}

// boundsHolder shares one boundsIndex between an evaluator and all its
// forks, so the O(n) decomposition and the offset tables are built once per
// family. Unlike a sync.Once the holder can be reset: a mobility epoch that
// moves a node out of the original lattice invalidates it in place, and the
// member applying the epoch rebuilds from the post-epoch positions.
type boundsHolder struct {
	mu  sync.Mutex
	idx *boundsIndex
}

// buildBoundsIndex constructs the cell decomposition from the evaluator's
// current positions, the near offsets, the shard partition and — unless
// the deployment's extent would make them exceed the occupancy cap of
// boundsOffsetsPerCell — the per-offset power tables.
func (f *FastChannel) buildBoundsIndex() *boundsIndex {
	cells := geom.NewCellIndex(f.pos, f.cullRadius)
	bi := &boundsIndex{cells: cells}
	sx, sy := cells.Span()
	bi.spanX, bi.spanY = sx, sy
	bi.shardCells = make([][]int32, min(f.shards, sx+1, cells.NumCells()))
	bi.appendCells()
	// Near offsets lie within the 5×5 neighbourhood; offsets beyond the
	// span can hold no occupied cell.
	for dx := -min(sx, 2); dx <= min(sx, 2); dx++ {
		for dy := -min(sy, 2); dy <= min(sy, 2); dy++ {
			if dmin, _ := geom.CellOffsetDistBounds(dx, dy, f.cullRadius); dmin <= f.cullRadius*(1+boundsDistPad) {
				bi.nearDX = append(bi.nearDX, int32(dx))
				bi.nearDY = append(bi.nearDY, int32(dy))
			}
		}
	}
	// Bounding each side first keeps the product from overflowing on
	// outlier geometry.
	w, h := 2*sx+1, 2*sy+1
	limit := max(boundsOffsetsPerCell*cells.NumCells(), boundsMinOffsets)
	if w > limit || h > limit || w*h > limit {
		return bi
	}
	bi.pwUB = make([]float64, w*h)
	bi.pwLB = make([]float64, w*h)
	bi.nearOff = make([]bool, w*h)
	bi.superW, bi.superH = sx/shardSuperSize+1, sy/shardSuperSize+1
	for dx := -sx; dx <= sx; dx++ {
		for dy := -sy; dy <= sy; dy++ {
			dmin, dmax := geom.CellOffsetDistBounds(dx, dy, f.cullRadius)
			idx := (dx+sx)*h + dy + sy
			bi.pwUB[idx] = f.ch.params.ReceivedPower(dmin * (1 - boundsDistPad))
			bi.pwLB[idx] = f.ch.params.ReceivedPower(dmax * (1 + boundsDistPad))
		}
	}
	for i := range bi.nearDX {
		bi.nearOff[(int(bi.nearDX[i])+sx)*h+int(bi.nearDY[i])+sy] = true
	}
	sw, sh := 2*bi.superW-1, 2*bi.superH-1
	bi.pwSuperUB = make([]float64, sw*sh)
	bi.pwSuperLB = make([]float64, sw*sh)
	super := shardSuperSize * f.cullRadius
	for dx := -(bi.superW - 1); dx <= bi.superW-1; dx++ {
		for dy := -(bi.superH - 1); dy <= bi.superH-1; dy++ {
			dmin, dmax := geom.CellOffsetDistBounds(dx, dy, super)
			idx := (dx+bi.superW-1)*sh + dy + bi.superH - 1
			bi.pwSuperUB[idx] = f.ch.params.ReceivedPower(dmin * (1 - boundsDistPad))
			bi.pwSuperLB[idx] = f.ch.params.ReceivedPower(dmax * (1 + boundsDistPad))
		}
	}
	return bi
}

// finishBounds restores the per-cell aggregates after the slot.
func (f *FastChannel) finishBounds() {
	for _, c := range f.occT {
		f.txCellCnt[c] = 0
	}
}
