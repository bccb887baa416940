package sinr

import (
	"math/bits"
	"sync/atomic"
)

// This file implements the cell lattice, FastChannel's one regime at every
// deployment size: a slot evaluator that holds no per-pair state at all —
// no n×n matrix, no per-sender power cache — only the shared cell index
// and the certified-bounds tables of bounds.go (the per-offset power-bound
// tables and a supercell layer on top), for O(occupied cells + nodes)
// memory. Every power it needs comes from the row kernel powerRow, one
// call per receiver: over the slot's transmitter coordinates (gathered
// once per slot) for an exact decode, and over the receiver cell's near
// transmitters (gathered once per cell) for the certified pipeline. The
// kernel's exponent switch sits outside its loops because a per-pair
// function holding it is too large to inline, which would cost every pair
// a call.
//
// The lattice replaced two earlier regimes, a spatial grid with a
// per-sender power-column cache (2048 < n ≤ 65536) and an n×n power
// matrix (n ≤ 2048); the package doc of sinrmac has the measurements that
// retired them.
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
// The two-level split is what keeps a dense slot at n = 10⁶ tractable: a
// flat pass over every (receiver cell, occupied cell) pair is quadratic in
// the ~10⁵ cells of a million-node deployment, while the supercell far
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
// arithmetic as bounds.go describes. Any stripe count therefore yields
// identical Reception slices. The lattice fixes S = defaultShardCount, and
// the geometry clamps it: a deployment gets one stripe per column up to 64
// (one stripe for a single node, 60 for a 60-column line), 64 stripes of
// one or two columns beyond that, and on sparse outlier geometry no more
// stripes than occupied cells. TestEvaluatorOracle holds every one of
// those to the naive channel, and re-stripes the same deployments into
// S ∈ {1, 2, 4, 8} to pin the invariant directly.
//
// Slots that decline the certificates (β guard, cost model, forced via
// BoundsFactor < 0, or a lattice too wide for its offset tables) fall back
// to a sharded dense scan: cells with no transmitter in any near cell are
// culled wholesale (conservative: the cell pair distance lower bound proves
// every received power below cullPower), and the surviving listeners pay
// the exact O(k) row. Sparse slots take the sender-centric path of
// fast.go, which walks the same cell index.

// defaultShardCount is the lattice's stripe count before stripe clamps it
// to the lattice's columns and occupied cells. Stripes are work-partition
// units, not threads: the scan runs min(workers, stripes) chunks, so 64
// stripes load-balance any worker count the pool is likely to see while
// keeping the per-stripe bookkeeping negligible. It is not a model
// parameter, so no option sets it.
const defaultShardCount = 64

// shardSuperSize is the supercell side length in cells. Supercells at
// Chebyshev distance ≥ 2 provably contain no near cell (their closest cell
// pair is shardSuperSize+1 ≥ 3 > 2 lattice steps apart), which is what lets
// the window phase stop at the 3×3 supercell neighbourhood; 8 balances the
// window size ((3·8)² offsets) against the supercell pass (n/64 cells
// aggregate into each supercell row).
const shardSuperSize = 8

// ShardBytesPerNodeBudget is the documented memory budget of the cell
// lattice: channel plus evaluator together stay under this many heap bytes
// per node (measured ~51 B/node at n = 10⁶ on the canonical density: the
// channel's positions and their SoA mirror, per-node slot scratch and the
// cell index's per-node arrays, plus per-cell state — the offset and cell
// tables and the slot aggregates — that amortizes over the nodes of each
// cell). TestShardedMillionNodeBudget enforces it with runtime.MemStats, and
// cmd/sinrsim's -maxnodes guard derives its refusal message from it.
const ShardBytesPerNodeBudget = 128

// shardForColumn maps a lattice column cx ∈ [0, spanX] to its stripe
// cx·S/(spanX+1). The product is taken in 128 bits: on outlier geometry
// spanX can reach 2·MaxCoordinate cells.
func (bi *boundsIndex) shardForColumn(cx int) int {
	hi, lo := bits.Mul64(uint64(cx), uint64(len(bi.shardCells)))
	sh, _ := bits.Div64(hi, lo, uint64(bi.spanX)+1)
	return int(sh)
}

// stripe partitions the occupied cells into min(s, columns, occupied cells)
// stripes of lattice columns; more stripes than either would stay empty.
func (bi *boundsIndex) stripe(s int) {
	bi.shardCells = make([][]int32, min(s, bi.spanX+1, bi.cells.NumCells()))
	bi.cellCount = 0
	bi.appendCells()
}

// appendCells extends the partition to cells the churn patch appended to
// the decomposition (always inside the original lattice, so the stripe
// function still applies). Steady-state mobility cycles re-occupy existing
// cells and append nothing.
func (bi *boundsIndex) appendCells() {
	nc := bi.cells.NumCells()
	for c := bi.cellCount; c < nc; c++ {
		cx, _ := bi.cells.Coord(c)
		sh := bi.shardForColumn(cx)
		bi.shardCells[sh] = append(bi.shardCells[sh], int32(c))
	}
	bi.cellCount = nc
}

// ensureIndex resolves the family's shared index, building it if no
// member has yet, and sizes this evaluator's lattice scratch for it.
func (f *FastChannel) ensureIndex() {
	h := f.bholder
	h.mu.Lock()
	if h.idx == nil {
		h.idx = f.buildBoundsIndex()
	}
	f.bidx = h.idx
	h.mu.Unlock()
	f.growShardScratch()
}

// growShardScratch sizes the lattice's per-slot scratch: the per-cell
// transmitter aggregates plus the per-supercell layer (empty on a lattice
// without tables). It allocates no per-cell far-sum or near-list arenas —
// the shard chunks compute those per receiver cell on the stack — so the
// evaluator's footprint stays O(cells + nodes). Scratch already large
// enough is kept (steady-state churn allocates nothing here).
func (f *FastChannel) growShardScratch() {
	nc := f.bidx.cells.NumCells()
	ns := f.bidx.superW * f.bidx.superH
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

// shardSlot evaluates one non-sparse slot: the certified bounds pipeline
// when the cost model (or BoundsFactor) selects it, the cell-culled dense
// scan otherwise.
func (f *FastChannel) shardSlot(transmitters []int) {
	if f.prepareShard(len(transmitters)) {
		f.runChunks(f.bidx.superW*f.bidx.superH, (*FastChannel).superFarChunk)
		f.runChunks(len(f.bidx.shardCells), (*FastChannel).shardBoundsChunk)
		f.finishShard()
		return
	}
	// Dense fallback: aggregate per-cell transmitter counts (for the
	// cell-level cull) and scan each shard's listeners exactly.
	f.countTxCells()
	f.runChunks(len(f.bidx.shardCells), (*FastChannel).shardDenseChunk)
	f.finishBounds()
}

// prepareShard decides whether the slot with k >= 1 transmitters takes the
// certified pipeline and, if so, builds the per-cell and per-supercell
// transmitter aggregates. It must run after f.tx is set; on rejection all
// touched scratch is restored.
//
// The adaptive decision (boundsFactor == 0) models per-slot op counts: the
// dense scan costs listeners·k, the pipeline k (aggregation) +
// supercells·occupiedSupercells (the far field) + a per-cell window of ~9
// occupied cells per supercell + listeners·(expected near transmitters +
// O(1)); it is taken only when it undercuts the dense scan by boundsSafety.
// A positive boundsFactor forces the pipeline (tests pin paths with it), a
// negative one disables it; either way the β guard is respected. A lattice
// without offset tables always declines.
func (f *FastChannel) prepareShard(k int) bool {
	bi := f.bidx
	if f.boundsFactor < 0 || f.beta-1 < boundsBetaMin || bi.pwUB == nil {
		return false
	}
	cells := bi.cells
	nc := cells.NumCells()
	ns := bi.superW * bi.superH
	listeners := float64(f.n - k)
	denseCost := listeners * float64(k)
	nearTx := float64(k) * float64(len(bi.nearDX)) / float64(nc)
	if f.boundsFactor == 0 {
		// Pre-count rejection: even with a single occupied cell the
		// pipeline cannot cost less than this, so slots the model will
		// reject anyway skip the O(k) aggregation.
		minCost := float64(k) + float64(nc) + float64(ns) + listeners*(nearTx+8)
		if minCost*boundsSafety > denseCost {
			return false
		}
	}
	f.countTxCells()
	occ := f.occT
	occS := f.occS[:0]
	for _, c := range occ {
		cx, cy := cells.Coord(int(c))
		sc := (cx/shardSuperSize)*bi.superH + cy/shardSuperSize
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
	// CSR of the slot's transmitters grouped by cell.
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
		sc := (cx/shardSuperSize)*bi.superH + cy/shardSuperSize
		f.occTBySuper[f.superOccFill[sc]] = c
		f.superOccFill[sc]++
	}
	epsK := 4.0 * 0x1p-52 * float64(k+64)
	f.slackUp, f.slackDown = 1+epsK, 1-epsK
	f.betaHi, f.betaLo = f.beta*(1+epsK), f.beta*(1-epsK)
	atomic.AddUint64(&f.boundsSlots, 1)
	return true
}

// countTxCells aggregates the slot's transmitters per cell: their count in
// txCellCnt and the occupied cells, in tx-encounter order, in occT.
func (f *FastChannel) countTxCells() {
	cells := f.bidx.cells
	occ := f.occT[:0]
	for _, t := range f.tx {
		c := cells.CellOf(t)
		if f.txCellCnt[c] == 0 {
			occ = append(occ, int32(c))
		}
		f.txCellCnt[c]++
	}
	f.occT = occ
}

// finishShard restores the per-cell and per-supercell aggregates after a
// certified sharded slot.
func (f *FastChannel) finishShard() {
	f.finishBounds()
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
	bi := f.bidx
	occS := f.occS
	h := 2*bi.superH - 1
	sc := lo
	for ; sc+4 <= hi; sc += 4 {
		rsx0, rsy0 := sc/bi.superH, sc%bi.superH
		rsx1, rsy1 := (sc+1)/bi.superH, (sc+1)%bi.superH
		rsx2, rsy2 := (sc+2)/bi.superH, (sc+2)%bi.superH
		rsx3, rsy3 := (sc+3)/bi.superH, (sc+3)%bi.superH
		var lo0, lo1, lo2, lo3 float64
		var hi0, hi1, hi2, hi3 float64
		var fm0, fm1, fm2, fm3 float64
		for _, tsc32 := range occS {
			tsc := int(tsc32)
			tsx, tsy := tsc/bi.superH, tsc%bi.superH
			cnt := float64(f.superTxCnt[tsc])
			if dsx, dsy := tsx-rsx0, tsy-rsy0; dsx < -1 || dsx > 1 || dsy < -1 || dsy > 1 {
				idx := (dsx+bi.superW-1)*h + dsy + bi.superH - 1
				lo0 += cnt * bi.pwSuperLB[idx]
				ub := bi.pwSuperUB[idx]
				hi0 += cnt * ub
				if ub > fm0 {
					fm0 = ub
				}
			}
			if dsx, dsy := tsx-rsx1, tsy-rsy1; dsx < -1 || dsx > 1 || dsy < -1 || dsy > 1 {
				idx := (dsx+bi.superW-1)*h + dsy + bi.superH - 1
				lo1 += cnt * bi.pwSuperLB[idx]
				ub := bi.pwSuperUB[idx]
				hi1 += cnt * ub
				if ub > fm1 {
					fm1 = ub
				}
			}
			if dsx, dsy := tsx-rsx2, tsy-rsy2; dsx < -1 || dsx > 1 || dsy < -1 || dsy > 1 {
				idx := (dsx+bi.superW-1)*h + dsy + bi.superH - 1
				lo2 += cnt * bi.pwSuperLB[idx]
				ub := bi.pwSuperUB[idx]
				hi2 += cnt * ub
				if ub > fm2 {
					fm2 = ub
				}
			}
			if dsx, dsy := tsx-rsx3, tsy-rsy3; dsx < -1 || dsx > 1 || dsy < -1 || dsy > 1 {
				idx := (dsx+bi.superW-1)*h + dsy + bi.superH - 1
				lo3 += cnt * bi.pwSuperLB[idx]
				ub := bi.pwSuperUB[idx]
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
		rsx, rsy := sc/bi.superH, sc%bi.superH
		loSum, hiSum, farMax := 0.0, 0.0, 0.0
		for _, tsc32 := range occS {
			tsc := int(tsc32)
			dsx := tsc/bi.superH - rsx
			dsy := tsc%bi.superH - rsy
			if dsx >= -1 && dsx <= 1 && dsy >= -1 && dsy <= 1 {
				continue // window: handled at cell granularity per receiver cell
			}
			idx := (dsx+bi.superW-1)*h + dsy + bi.superH - 1
			cnt := float64(f.superTxCnt[tsc])
			loSum += cnt * bi.pwSuperLB[idx]
			ub := bi.pwSuperUB[idx]
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
	cells := bi.cells
	const g = shardSuperSize
	h := 2*bi.spanY + 1
	var near [25]int32
	var evaluated, refined uint64
	for si := lo; si < hi; si++ {
		for _, rc32 := range bi.shardCells[si] {
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
			scSelf := rsx*bi.superH + rsy
			loFar := f.superFarLo[scSelf]
			hiFar := f.superFarHi[scSelf]
			farMax := f.superFarMax[scSelf]
			nearN, nearTx := 0, 0
			wsxHi, wsyHi := rsx+1, rsy+1
			if wsxHi >= bi.superW {
				wsxHi = bi.superW - 1
			}
			if wsyHi >= bi.superH {
				wsyHi = bi.superH - 1
			}
			for wsx := max(rsx-1, 0); wsx <= wsxHi; wsx++ {
				for wsy := max(rsy-1, 0); wsy <= wsyHi; wsy++ {
					sc := wsx*bi.superH + wsy
					s0 := f.superOccStart[sc]
					for _, tc := range f.occTBySuper[s0 : s0+int32(f.superOccCnt[sc])] {
						tcx, tcy := cells.Coord(int(tc))
						idx := (tcx-rcx+bi.spanX)*h + tcy - rcy + bi.spanY
						if bi.nearOff[idx] {
							near[nearN] = tc
							nearN++
							nearTx += int(f.txCellCnt[tc])
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
			// The near transmitters' coordinates, gathered once per cell in
			// near-cell then CSR order: every listener sums and scans them
			// in that order.
			nearX, nearY, nearS := f.nearList(worker, nearTx)
			m := 0
			for i := 0; i < nearN; i++ {
				c := near[i]
				cstart := f.txCellStart[c]
				for _, s := range f.txByCell[cstart : cstart+f.txCellCnt[c]] {
					nearX[m], nearY[m], nearS[m] = f.px[s], f.py[s], s
					m++
				}
			}
			nearPow := row[:nearTx]
			for _, r32 := range nodes {
				r := int(r32)
				if f.isTx[r] {
					continue
				}
				evaluated++
				exactNear := f.powerRow(nearX, nearY, f.px[r], f.py[r], nearPow)
				best := -1
				bestPow := 0.0
				for j, pw := range nearPow {
					if pw > bestPow {
						bestPow = pw
						best = int(nearS[j])
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
				// scan's arithmetic (powerRow in transmitter order). It
				// overwrites nearPow, which this listener no longer reads.
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
// the sparse path's ball test), and each surviving listener pays the exact
// O(k) row, bit-identical to the dense scan.
//
//sinrlint:hotpath
func (f *FastChannel) shardDenseChunk(lo, hi, worker int) {
	dec := f.decoded[worker]
	row := f.workerRow(worker)
	bi := f.bidx
	cells := bi.cells
	for si := lo; si < hi; si++ {
		for _, rc32 := range bi.shardCells[si] {
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
			for i := range bi.nearDX {
				c := cells.CellAt(rcx+int(bi.nearDX[i]), rcy+int(bi.nearDY[i]))
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
