package sinr

import (
	"sync/atomic"

	"sinrmac/internal/geom"
)

// This file implements the cell lattice, FastChannel's regime for every
// deployment above the matrix threshold: the slot evaluator that promotes
// the hierarchical bounds representation of bounds.go from an opportunistic
// per-slot tier to the primary regime. Above MatrixThreshold nodes (or
// whenever FastOptions.Shards pins it) the evaluator holds no per-pair
// state at all — no n×n matrix, no per-sender power cache, no map-backed
// spatial grid — only the flat cell decomposition (geom.CellIndex), the
// per-offset power-bound tables, and a supercell layer on top, for
// O(occupied cells + nodes) memory; every power it needs is computed by
// pairPower.
//
// Between the matrix threshold and n = 65536 the lattice replaced a spatial
// grid with a clock-evicted per-sender power-column cache: at GOMAXPROCS = 1
// it was as fast or faster at n ∈ {4k, 16k, 64k} on k = n/4, k = n/10 and
// churn slots, allocation-free under churn, and the n = 4096 end-to-end
// workloads ran in a third to two thirds of the grid's peak memory (the
// package doc of sinrmac has the numbers). The grid won only sparse 4k
// slots that repeat one transmitter set, a pattern no simulated protocol
// produces.
//
// # Structure
//
// The occupied cells are partitioned spatially into S shards — stripes of
// lattice columns, a pure function of the cell coordinate — and the
// receiver scan runs one chunk per shard on the worker pool, like every
// other scan. Each shard evaluates its own receivers against
//
//   - exact per-sender terms for the near cells (distance lower bound
//     within the culling radius — at most 21 lattice offsets, wherever the
//     sender lives);
//   - certified per-cell-offset power bounds for the remote transmitter
//     aggregates of the surrounding 3×3 supercell window (two table
//     lookups per occupied window cell);
//   - certified per-supercell-offset bounds for everything farther out:
//     supercells are squares of shardSuperSize cells, and a per-slot
//     supercell pass aggregates the transmitter counts so the far field
//     costs O(occupied supercells) per supercell instead of O(occupied
//     cells) per cell.
//
// The two-level split is what keeps a dense slot at n = 10⁶ tractable: the
// flat bounds tier's prep pass is O(cells × occupied cells) — quadratic in
// the ~10⁵ cells of a million-node deployment — while the supercell far
// field is O(supercells × occupied supercells) plus a per-cell window of
// ~(3·shardSuperSize)² table lookups.
//
// # The cross-shard certificate invariant
//
// A shard never reads another shard's per-receiver state; everything it
// knows about remote transmitters is the per-cell/per-supercell aggregate
// bounds. The decisions stay bit-identical to Channel.SlotReceptions at any
// shard count because the shard partition only distributes *work*: every
// quantity entering a decode/silence certificate — the near-cell exact sum,
// the window cell bounds, the supercell far bounds, and the k·ulp rounding
// slack ε_k of bounds.go — is a deterministic function of the slot's
// transmitter set and the (shard-independent) lattice decomposition. The
// bound sums carry at most 2k+near terms across the three levels, within
// the 4·(k+64)·ulp slack budget, so loW ≤ Ŝ ≤ hiW still brackets the exact
// path's floating-point interference sum in any summation order; receivers
// whose certificates disagree refine through the exact per-receiver
// arithmetic exactly as in bounds.go. S ∈ {1, 2, 4, 8, …} therefore yields
// identical Reception slices, which TestShardedEquivalence pins.
//
// Slots that decline the certificates (β guard, cost model, forced via
// BoundsFactor < 0) fall back to a sharded dense scan: cells with no
// transmitter in any near cell are culled wholesale (conservative: the cell
// pair distance lower bound proves every received power below cullPower),
// and the surviving listeners pay the exact O(k) row. Sparse slots keep the
// sender-centric path, with candidates enumerated by walking the cell
// lattice instead of the map grid.

// defaultShardCount is the shard count of the automatic cell lattice.
// Shards are work-partition units, not threads: the scan runs min(workers,
// shards) chunks, so 64 stripes load-balance any worker count the pool is
// likely to see while keeping the per-shard bookkeeping negligible.
const defaultShardCount = 64

// shardSuperSize is the supercell side length in cells. Supercells at
// Chebyshev distance ≥ 2 provably contain no near cell (their closest cell
// pair is shardSuperSize+1 ≥ 3 > 2 lattice steps apart), which is what lets
// the window phase stop at the 3×3 supercell neighbourhood; 8 balances the
// window size ((3·8)² offsets) against the supercell pass (n/64 cells
// aggregate into each supercell row).
const shardSuperSize = 8

// ShardBytesPerNodeBudget is the documented memory budget of the sharded
// regime: channel plus evaluator together stay under this many heap bytes
// per node (measured ~90 B/node at n = 10⁶ on the canonical density —
// positions and their SoA mirror at 32 B, reception/flag/stamp scratch at
// 13 B, the cell index CSR at ~13 B, and the offset tables amortizing to
// ~8 B). TestShardedMillionNodeBudget enforces it with runtime.MemStats,
// and cmd/sinrsim's -maxnodes guard derives its refusal message from it.
const ShardBytesPerNodeBudget = 128

// shardExt is the lattice's extension of the bounds index: the
// supercell layer and the shard partition. It is built once per fork family
// (attached to the shared boundsIndex under the holder lock) and mutated
// only by churn epochs, which append entries for newly occupied cells.
type shardExt struct {
	s int // shard count
	g int // supercell side, in cells (shardSuperSize)
	// Supercell lattice dimensions: cell (cx, cy) lives in supercell
	// (cx/g)·superH + cy/g, a dense id in [0, superW·superH).
	superW, superH int
	// spanX1 is spanX+1 of the lattice at build time; the stripe function
	// shard(cx) = cx·s/spanX1 stays stable across churn epochs because a
	// successful in-place patch never changes the span.
	spanX1 int
	// Per-supercell-offset power bounds, the coarse analogue of the
	// boundsIndex cell tables: valid for any point pair of two supercells
	// at lattice offset (dx, dy), indexed by (dx+superW-1)·(2·superH-1) +
	// dy+superH-1.
	pwSuperUB, pwSuperLB []float64
	// The near lattice offsets (distance lower bound within the culling
	// radius): at most 21 of the 5×5 neighbourhood, independent of the
	// deployment. The sharded dense path probes them to cull whole cells.
	nearDX, nearDY []int32
	// shardCells[s] lists the dense cell ids of shard s; the per-shard
	// receiver chunks iterate exactly one list each.
	shardCells [][]int32
	cellCount  int // cells assigned so far (== NumCells between epochs)
}

// shardForColumn maps a lattice column to its stripe.
func (e *shardExt) shardForColumn(cx int) int {
	sh := cx * e.s / e.spanX1
	if sh >= e.s {
		sh = e.s - 1
	}
	if sh < 0 {
		sh = 0
	}
	return sh
}

// appendCells extends the partition to cells the churn patch appended to
// the decomposition (always inside the original lattice, so the stripe
// function still applies). Steady-state mobility cycles re-occupy existing
// cells and append nothing.
func (e *shardExt) appendCells(cells *geom.CellIndex) {
	nc := cells.NumCells()
	for c := e.cellCount; c < nc; c++ {
		cx, _ := cells.Coord(c)
		sh := e.shardForColumn(cx)
		e.shardCells[sh] = append(e.shardCells[sh], int32(c))
	}
	e.cellCount = nc
}

// buildShardExt constructs the supercell layer and shard partition over a
// freshly built bounds index.
func (f *FastChannel) buildShardExt(bi *boundsIndex) *shardExt {
	cells := bi.cells
	ext := &shardExt{
		s:      f.shards,
		g:      shardSuperSize,
		superW: bi.spanX/shardSuperSize + 1,
		superH: bi.spanY/shardSuperSize + 1,
		spanX1: bi.spanX + 1,
	}
	w, h := 2*ext.superW-1, 2*ext.superH-1
	ext.pwSuperUB = make([]float64, w*h)
	ext.pwSuperLB = make([]float64, w*h)
	super := float64(ext.g) * cells.CellSize()
	for dx := -(ext.superW - 1); dx <= ext.superW-1; dx++ {
		for dy := -(ext.superH - 1); dy <= ext.superH-1; dy++ {
			dmin, dmax := geom.CellOffsetDistBounds(dx, dy, super)
			idx := (dx+ext.superW-1)*h + dy + ext.superH - 1
			ext.pwSuperUB[idx] = f.ch.params.ReceivedPower(dmin * (1 - boundsDistPad))
			ext.pwSuperLB[idx] = f.ch.params.ReceivedPower(dmax * (1 + boundsDistPad))
		}
	}
	for dx := -2; dx <= 2; dx++ {
		for dy := -2; dy <= 2; dy++ {
			if dmin, _ := geom.CellOffsetDistBounds(dx, dy, cells.CellSize()); dmin <= f.cullRadius*(1+boundsDistPad) {
				ext.nearDX = append(ext.nearDX, int32(dx))
				ext.nearDY = append(ext.nearDY, int32(dy))
			}
		}
	}
	ext.shardCells = make([][]int32, ext.s)
	ext.appendCells(cells)
	return ext
}

// resolveShards maps the FastOptions.Shards knob to the lattice's shard
// count for an n-node deployment under the resolved matrix threshold: a
// positive value selects the lattice with that count at any size (the
// differential tests pin S ∈ {1, 2, 4, 8} this way); otherwise the lattice
// runs with defaultShardCount shards above the threshold and 0 (the matrix
// regime) at or below it.
func resolveShards(opt, n, threshold int) int {
	switch {
	case opt > 0:
		return opt
	case n > threshold:
		return defaultShardCount
	}
	return 0
}

// Shards returns the shard count of the cell lattice, or 0 when the
// evaluator runs the matrix regime or the outlier-geometry grid fallback.
func (f *FastChannel) Shards() int { return f.shards }

// OccupiedCells returns the number of occupied cells in the bounds/shard
// cell decomposition, or 0 while the index has not been built (the bounds
// tier builds it lazily on the first slot that selects it; the sharded
// regime builds it eagerly at construction). The count is what the sharded
// regime's memory scales with, so the scale experiment reports it.
func (f *FastChannel) OccupiedCells() int {
	if f.bidx == nil {
		return 0
	}
	return f.bidx.cells.NumCells()
}

// ensureShardIndex resolves the shared bounds index for the lattice
// — building it eagerly, unlike the lazy bounds tier — and attaches the
// shard extension. It reports false when the deployment's extent latches
// the offset tables off (boundsMaxOffsets); the caller then demotes to the
// grid fallback, which handles outlier geometry at per-pair cost.
func (f *FastChannel) ensureShardIndex() bool {
	h := f.bholder
	h.mu.Lock()
	if !h.built {
		h.idx, h.off = f.buildBoundsIndex()
		h.built = true
	}
	if h.idx != nil && h.idx.shard == nil {
		h.idx.shard = f.buildShardExt(h.idx)
	}
	f.bidx, f.boundsOff = h.idx, h.off
	h.mu.Unlock()
	if f.bidx == nil {
		return false
	}
	f.sext = f.bidx.shard
	f.growShardScratch()
	return true
}

// growShardScratch sizes the lattice's per-slot scratch: the
// per-cell transmitter aggregates shared with the bounds tier plus the
// per-supercell layer. Unlike growBoundsScratch it allocates no per-cell
// far-sum or near-list arenas — the shard chunks compute those per receiver
// cell on the stack — so the evaluator's footprint stays O(cells + nodes).
// Scratch already large enough is kept (steady-state churn allocates
// nothing here).
func (f *FastChannel) growShardScratch() {
	nc := f.bidx.cells.NumCells()
	ns := f.sext.superW * f.sext.superH
	if len(f.txCellCnt) >= nc && len(f.superTxCnt) >= ns && cap(f.occTBySuper) >= nc {
		return
	}
	f.txCellCnt = make([]int32, nc)
	f.txCellStart = make([]int32, nc)
	f.txCellFill = make([]int32, nc)
	f.occT = make([]int32, 0, nc)
	f.occTBySuper = make([]int32, nc)
	f.superTxCnt = make([]int32, ns)
	f.superOccCnt = make([]int32, ns)
	f.superOccStart = make([]int32, ns)
	f.superOccFill = make([]int32, ns)
	f.occS = make([]int32, 0, ns)
	f.superFarLo = make([]float64, ns)
	f.superFarHi = make([]float64, ns)
	f.superFarMax = make([]float64, ns)
}

// demoteToGrid abandons the cell lattice for the outlier-geometry fallback:
// a spatial grid culls receivers and every power is recomputed by pairPower.
// It runs at construction, and after churn that stretches the deployment
// past the offset-table cap mid-life. It is deliberately rare and
// allocation-heavy; the differential tests pin that the fallback still
// matches the reference.
func (f *FastChannel) demoteToGrid() {
	f.shards, f.sext = 0, nil
	f.buildGrid()
}

// shardSlot evaluates one non-sparse slot in the lattice: the
// certified bounds pipeline when the cost model (or BoundsFactor) selects
// it, the cell-culled dense scan otherwise.
func (f *FastChannel) shardSlot(transmitters []int) {
	if f.prepareShard(len(transmitters)) {
		f.runChunks(f.sext.superW*f.sext.superH, (*FastChannel).superFarChunk)
		f.runChunks(f.shards, (*FastChannel).shardBoundsChunk)
		f.finishShard()
		return
	}
	// Dense fallback: aggregate per-cell transmitter counts (for the
	// cell-level cull) and scan each shard's listeners exactly.
	occ := f.occT[:0]
	cells := f.bidx.cells
	for _, t := range f.tx {
		c := cells.CellOf(t)
		if f.txCellCnt[c] == 0 {
			occ = append(occ, int32(c))
		}
		f.txCellCnt[c]++
	}
	f.occT = occ
	f.runChunks(f.shards, (*FastChannel).shardDenseChunk)
	f.finishBounds()
}

// prepareShard is the sharded analogue of prepareBounds: it decides whether
// the slot takes the certified pipeline and, if so, builds the per-cell and
// per-supercell transmitter aggregates. The cost model mirrors the flat
// tier's with the supercell terms added: the far field costs
// supercells·occupiedSupercells instead of cells·occupiedCells, plus a
// per-cell window of ~9 occupied cells per supercell.
func (f *FastChannel) prepareShard(k int) bool {
	if f.boundsFactor < 0 || f.beta-1 < boundsBetaMin {
		return false
	}
	cells := f.bidx.cells
	ext := f.sext
	nc := cells.NumCells()
	ns := ext.superW * ext.superH
	listeners := float64(f.n - k)
	denseCost := listeners * float64(k)
	nearTx := float64(k) * float64(f.bidx.nearStride) / float64(nc)
	if f.boundsFactor == 0 {
		// Pre-count rejection: even with a single occupied cell the
		// pipeline cannot cost less than this, so slots the model will
		// reject anyway skip the O(k) aggregation.
		minCost := float64(k) + float64(nc) + float64(ns) + listeners*(nearTx+8)
		if minCost*boundsSafety > denseCost {
			return false
		}
	}
	occ := f.occT[:0]
	for _, t := range f.tx {
		c := cells.CellOf(t)
		if f.txCellCnt[c] == 0 {
			occ = append(occ, int32(c))
		}
		f.txCellCnt[c]++
	}
	f.occT = occ
	g := ext.g
	occS := f.occS[:0]
	for _, c := range occ {
		cx, cy := cells.Coord(int(c))
		sc := (cx/g)*ext.superH + cy/g
		if f.superOccCnt[sc] == 0 {
			occS = append(occS, int32(sc))
		}
		f.superOccCnt[sc]++
		f.superTxCnt[sc] += f.txCellCnt[c]
	}
	f.occS = occS
	if f.boundsFactor == 0 {
		shardCost := float64(k) + float64(ns)*float64(len(occS)) +
			float64(nc)*(1+9*float64(len(occ))/float64(ns)) + listeners*(nearTx+8)
		if shardCost*boundsSafety > denseCost {
			for _, c := range occ {
				f.txCellCnt[c] = 0
			}
			for _, sc := range occS {
				f.superOccCnt[sc] = 0
				f.superTxCnt[sc] = 0
			}
			return false
		}
	}
	// CSR of the slot's transmitters grouped by cell (shared layout with
	// the flat bounds tier).
	if cap(f.txByCell) < k {
		f.txByCell = make([]int32, k)
	}
	f.txByCell = f.txByCell[:k]
	pos := int32(0)
	for _, c := range occ {
		f.txCellStart[c] = pos
		f.txCellFill[c] = pos
		pos += f.txCellCnt[c]
	}
	for _, t := range f.tx {
		c := cells.CellOf(t)
		f.txByCell[f.txCellFill[c]] = int32(t)
		f.txCellFill[c]++
	}
	// CSR of the occupied cells grouped by supercell, driving the window
	// enumeration of the per-shard chunks.
	spos := int32(0)
	for sc := 0; sc < ns; sc++ {
		f.superOccStart[sc] = spos
		f.superOccFill[sc] = spos
		spos += f.superOccCnt[sc]
	}
	for _, c := range occ {
		cx, cy := cells.Coord(int(c))
		sc := (cx/g)*ext.superH + cy/g
		f.occTBySuper[f.superOccFill[sc]] = c
		f.superOccFill[sc]++
	}
	epsK := 4.0 * 0x1p-52 * float64(k+64)
	f.slackUp, f.slackDown = 1+epsK, 1-epsK
	f.betaHi, f.betaLo = f.beta*(1+epsK), f.beta*(1-epsK)
	atomic.AddUint64(&f.boundsSlots, 1)
	return true
}

// finishShard restores the per-cell and per-supercell aggregates after a
// certified sharded slot.
func (f *FastChannel) finishShard() {
	for _, c := range f.occT {
		f.txCellCnt[c] = 0
	}
	for _, sc := range f.occS {
		f.superOccCnt[sc] = 0
		f.superTxCnt[sc] = 0
	}
}

// superFarChunk computes, for every receiver supercell in [lo, hi), the
// far-field interference bounds contributed by transmitter supercells
// outside the 3×3 window (Chebyshev distance ≥ 2 — those provably contain
// no near cell). Each chunk writes only its own range.
//
// Receiver supercells are processed in 4-wide blocks sharing one pass over
// the occupied-supercell list: the transmitter supercell's coordinates and
// occupancy count are decoded once per occupied supercell instead of once
// per (receiver, transmitter) pair, and the four lanes accumulate through
// independent chains. Per lane the operations — window skip, bound sums in
// occupied order, max update — are exactly the scalar body's, so the
// aggregates are bit-identical to the scalar loop's.
//
//sinrlint:hotpath
func (f *FastChannel) superFarChunk(lo, hi, _ int) {
	ext := f.sext
	occS := f.occS
	h := 2*ext.superH - 1
	sc := lo
	for ; sc+4 <= hi; sc += 4 {
		rsx0, rsy0 := sc/ext.superH, sc%ext.superH
		rsx1, rsy1 := (sc+1)/ext.superH, (sc+1)%ext.superH
		rsx2, rsy2 := (sc+2)/ext.superH, (sc+2)%ext.superH
		rsx3, rsy3 := (sc+3)/ext.superH, (sc+3)%ext.superH
		var lo0, lo1, lo2, lo3 float64
		var hi0, hi1, hi2, hi3 float64
		var fm0, fm1, fm2, fm3 float64
		for _, tsc32 := range occS {
			tsc := int(tsc32)
			tsx, tsy := tsc/ext.superH, tsc%ext.superH
			cnt := float64(f.superTxCnt[tsc])
			if dsx, dsy := tsx-rsx0, tsy-rsy0; dsx < -1 || dsx > 1 || dsy < -1 || dsy > 1 {
				idx := (dsx+ext.superW-1)*h + dsy + ext.superH - 1
				lo0 += cnt * ext.pwSuperLB[idx]
				ub := ext.pwSuperUB[idx]
				hi0 += cnt * ub
				if ub > fm0 {
					fm0 = ub
				}
			}
			if dsx, dsy := tsx-rsx1, tsy-rsy1; dsx < -1 || dsx > 1 || dsy < -1 || dsy > 1 {
				idx := (dsx+ext.superW-1)*h + dsy + ext.superH - 1
				lo1 += cnt * ext.pwSuperLB[idx]
				ub := ext.pwSuperUB[idx]
				hi1 += cnt * ub
				if ub > fm1 {
					fm1 = ub
				}
			}
			if dsx, dsy := tsx-rsx2, tsy-rsy2; dsx < -1 || dsx > 1 || dsy < -1 || dsy > 1 {
				idx := (dsx+ext.superW-1)*h + dsy + ext.superH - 1
				lo2 += cnt * ext.pwSuperLB[idx]
				ub := ext.pwSuperUB[idx]
				hi2 += cnt * ub
				if ub > fm2 {
					fm2 = ub
				}
			}
			if dsx, dsy := tsx-rsx3, tsy-rsy3; dsx < -1 || dsx > 1 || dsy < -1 || dsy > 1 {
				idx := (dsx+ext.superW-1)*h + dsy + ext.superH - 1
				lo3 += cnt * ext.pwSuperLB[idx]
				ub := ext.pwSuperUB[idx]
				hi3 += cnt * ub
				if ub > fm3 {
					fm3 = ub
				}
			}
		}
		f.superFarLo[sc], f.superFarLo[sc+1], f.superFarLo[sc+2], f.superFarLo[sc+3] = lo0, lo1, lo2, lo3
		f.superFarHi[sc], f.superFarHi[sc+1], f.superFarHi[sc+2], f.superFarHi[sc+3] = hi0, hi1, hi2, hi3
		f.superFarMax[sc], f.superFarMax[sc+1], f.superFarMax[sc+2], f.superFarMax[sc+3] = fm0, fm1, fm2, fm3
	}
	for ; sc < hi; sc++ {
		rsx, rsy := sc/ext.superH, sc%ext.superH
		loSum, hiSum, farMax := 0.0, 0.0, 0.0
		for _, tsc32 := range occS {
			tsc := int(tsc32)
			dsx := tsc/ext.superH - rsx
			dsy := tsc%ext.superH - rsy
			if dsx >= -1 && dsx <= 1 && dsy >= -1 && dsy <= 1 {
				continue // window: handled at cell granularity per receiver cell
			}
			idx := (dsx+ext.superW-1)*h + dsy + ext.superH - 1
			cnt := float64(f.superTxCnt[tsc])
			loSum += cnt * ext.pwSuperLB[idx]
			ub := ext.pwSuperUB[idx]
			hiSum += cnt * ub
			if ub > farMax {
				farMax = ub
			}
		}
		f.superFarLo[sc] = loSum
		f.superFarHi[sc] = hiSum
		f.superFarMax[sc] = farMax
	}
}

// shardBoundsChunk evaluates the receivers of shards [lo, hi) on the
// certified pipeline. Per receiver cell it folds the cell-granularity
// bounds of the 3×3 supercell window (collecting the near cells into a
// stack buffer — at most 21 near offsets exist) on top of the precomputed
// supercell far field, then runs the standard certificate per listener:
// near transmitters exactly, decode/silence decisions emitted only when
// provable, the ambiguous band refined with the exact O(k) arithmetic.
//
//sinrlint:hotpath
func (f *FastChannel) shardBoundsChunk(lo, hi, worker int) {
	dec := f.decoded[worker]
	row := f.workerRow(worker)
	bi := f.bidx
	ext := f.sext
	cells := bi.cells
	g := ext.g
	h := 2*bi.spanY + 1
	var near [25]int32
	var evaluated, refined uint64
	for si := lo; si < hi; si++ {
		for _, rc32 := range ext.shardCells[si] {
			rc := int(rc32)
			nodes := cells.Nodes(rc)
			if len(nodes) == 0 {
				continue
			}
			listening := false
			for _, r := range nodes {
				if !f.isTx[r] {
					listening = true
					break
				}
			}
			if !listening {
				continue
			}
			rcx, rcy := cells.Coord(rc)
			rsx, rsy := rcx/g, rcy/g
			scSelf := rsx*ext.superH + rsy
			loFar := f.superFarLo[scSelf]
			hiFar := f.superFarHi[scSelf]
			farMax := f.superFarMax[scSelf]
			nearN := 0
			wsxHi, wsyHi := rsx+1, rsy+1
			if wsxHi >= ext.superW {
				wsxHi = ext.superW - 1
			}
			if wsyHi >= ext.superH {
				wsyHi = ext.superH - 1
			}
			for wsx := max(rsx-1, 0); wsx <= wsxHi; wsx++ {
				for wsy := max(rsy-1, 0); wsy <= wsyHi; wsy++ {
					sc := wsx*ext.superH + wsy
					s0 := f.superOccStart[sc]
					for _, tc := range f.occTBySuper[s0 : s0+int32(f.superOccCnt[sc])] {
						tcx, tcy := cells.Coord(int(tc))
						idx := (tcx-rcx+bi.spanX)*h + tcy - rcy + bi.spanY
						if bi.nearOff[idx] {
							near[nearN] = tc
							nearN++
							continue
						}
						cnt := float64(f.txCellCnt[tc])
						loFar += cnt * bi.pwLB[idx]
						ub := bi.pwUB[idx]
						hiFar += cnt * ub
						if ub > farMax {
							farMax = ub
						}
					}
				}
			}
			for _, r32 := range nodes {
				r := int(r32)
				if f.isTx[r] {
					continue
				}
				evaluated++
				rx, ry := f.px[r], f.py[r]
				exactNear := 0.0
				best := -1
				bestPow := 0.0
				for i := 0; i < nearN; i++ {
					c := near[i]
					cstart := f.txCellStart[c]
					for _, s := range f.txByCell[cstart : cstart+f.txCellCnt[c]] {
						pw := f.pairPower(f.px[s], f.py[s], rx, ry)
						exactNear += pw
						if pw > bestPow {
							bestPow = pw
							best = int(s)
						}
					}
				}
				loW := (exactNear + loFar) * f.slackDown
				hiW := (exactNear + hiFar) * f.slackUp
				if best >= 0 && bestPow >= f.betaHi*(hiW-bestPow+f.noise) {
					f.out[r].Sender = best
					dec = append(dec, r)
					continue
				}
				pMax := bestPow
				if farMax > pMax {
					pMax = farMax
				}
				itf := loW - pMax
				if itf < 0 {
					itf = 0
				}
				if pMax < f.betaLo*(itf+f.noise) {
					continue // certified: nothing decodes here
				}
				// Ambiguous band: exact fallback, identical to the dense
				// scan's arithmetic (pairPower in transmitter order).
				refined++
				dec = f.decodeExact(r, row, dec)
			}
		}
	}
	f.decoded[worker] = dec
	atomic.AddUint64(&f.boundsReceivers, evaluated)
	atomic.AddUint64(&f.boundsRefined, refined)
}

// shardDenseChunk is the lattice's exact fallback scan for slots the
// certificates decline: cells with no transmitter in any near-offset cell
// are culled wholesale (the cell-pair distance lower bound proves every
// received power there below cullPower — the same conservative argument as
// the per-receiver grid cull), and each surviving listener pays the exact
// O(k) row, bit-identical to the dense scan.
//
//sinrlint:hotpath
func (f *FastChannel) shardDenseChunk(lo, hi, worker int) {
	dec := f.decoded[worker]
	row := f.workerRow(worker)
	ext := f.sext
	cells := f.bidx.cells
	for si := lo; si < hi; si++ {
		for _, rc32 := range ext.shardCells[si] {
			rc := int(rc32)
			nodes := cells.Nodes(rc)
			listening := false
			for _, r := range nodes {
				if !f.isTx[r] {
					listening = true
					break
				}
			}
			if !listening {
				continue
			}
			rcx, rcy := cells.Coord(rc)
			hot := false
			for i := range ext.nearDX {
				c := cells.CellAt(rcx+int(ext.nearDX[i]), rcy+int(ext.nearDY[i]))
				if c >= 0 && f.txCellCnt[c] > 0 {
					hot = true
					break
				}
			}
			if !hot {
				continue // no transmitter within the culling radius of any point of rc
			}
			for _, r32 := range nodes {
				r := int(r32)
				if f.isTx[r] {
					continue
				}
				dec = f.decodeExact(r, row, dec)
			}
		}
	}
	f.decoded[worker] = dec
}

// appendCandidatesCells is the lattice's candidate enumeration: the
// transmitters' culling balls walked on the cell lattice (the 3×3 cell
// window suffices because the ball radius equals the cell side) with the
// same DistSq ≤ r² membership predicate as the grid's AppendWithin, so the
// candidate set is identical to the matrix regime's.
func (f *FastChannel) appendCandidatesCells(tx []int, gen uint32) {
	cells := f.bidx.cells
	rr := f.cullRadius * f.cullRadius
	for _, s := range tx {
		p := f.pos[s]
		cx, cy := cells.PointCoord(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				c := cells.CellAt(cx+dx, cy+dy)
				if c < 0 {
					continue
				}
				for _, id32 := range cells.Nodes(c) {
					id := int(id32)
					if f.mark[id] != gen && f.pos[id].DistSq(p) <= rr {
						f.mark[id] = gen
						f.candidates = append(f.candidates, id)
					}
				}
			}
		}
	}
}
