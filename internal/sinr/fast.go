package sinr

import (
	"math"
	"runtime"

	"sinrmac/internal/geom"
	"sinrmac/internal/workpool"
)

// DefaultMatrixThreshold is the largest deployment size for which
// FastChannel precomputes the full n×n received-power matrix (n = 2048 uses
// 32 MiB). Larger deployments, and any deployment with a positive
// FastOptions.Shards, run the cell-lattice regime of shard.go.
const DefaultMatrixThreshold = 2048

// sparseCoverageMax is the crossover of the default (adaptive) sparse
// heuristic: a slot takes the sender-centric sparse path when the estimated
// fraction of nodes covered by the transmitters' culling balls is at most
// this value.
//
// The heuristic weighs the two slot costs. The dense scan visits all n
// receivers and sums k powers at each: Θ(n·k), in receiver order (cache
// friendly). The sparse path enumerates only the receivers within
// cullRadius of some transmitter — every other receiver provably decodes
// nothing — at a cost of Σ_s |ball(s)| cell probes plus |candidates|·k
// arithmetic, but touches the candidates in scattered order. Under a
// uniform-deployment model with per-ball coverage probability p =
// ballArea/deploymentArea, the expected candidate fraction after k balls is
// 1-(1-p)^k; the evaluator computes exactly that estimate per slot (one Exp
// from precomputed ln(1-p)) and goes sparse below the threshold. Measured
// on the canonical benchmark workloads the true crossover sits near an
// estimated coverage of 0.8 (the arithmetic saved equals the enumeration
// plus locality cost); 0.6 keeps a safety margin for the estimate's
// uniformity assumption, so dense slots (broadcast storms, all-transmit
// probes, discovery blocks in clustered deployments) stay on the scan that
// streams receivers sequentially.
const sparseCoverageMax = 0.6

// cullSlack is the relative safety margin applied to the far-field culling
// thresholds. Culling is only an optimisation: a sender is skipped by the
// decode scan only when its received power provably cannot reach the SINR
// threshold even with zero interference, and a receiver is skipped only when
// no transmitter lies within the (slack-inflated) transmission range. The
// margin keeps both shortcuts conservative under floating-point rounding, so
// every borderline pair still goes through the exact reference arithmetic
// and the fast evaluator stays bit-identical to the naive one.
const cullSlack = 1e-9

// FastOptions tunes a FastChannel. The zero value selects the defaults.
type FastOptions struct {
	// SparseFactor overrides the sparse-path crossover. Zero (the default)
	// selects the adaptive heuristic: a slot is evaluated
	// sender-centrically when the estimated ball coverage of its
	// transmitters stays below sparseCoverageMax (see that constant). A
	// positive value pins a fixed crossover instead — sparse when
	// k·SparseFactor ≤ n, with 1 forcing the sparse path on every slot —
	// and a negative value disables the sparse path entirely (every slot
	// scans all n receivers, the pre-sparse behaviour the benchmarks
	// compare against). The evaluator oracle uses the overrides to pin
	// each path; simulations keep the default.
	SparseFactor int
	// BoundsFactor overrides the lattice's certified-bounds dispatch for
	// the slots the sparse path declined. Zero (the default) selects the
	// adaptive per-slot cost model of prepareShard; a positive value forces
	// the certified pipeline onto every such slot (the evaluator oracle
	// pins it this way), and a negative value disables it (the lattice's
	// exact dense scan the benchmarks compare against). The β guard
	// (boundsBetaMin) is respected in every mode. The matrix regime has no
	// certified tier and ignores it.
	BoundsFactor int
	// Shards is the shard count of the cell lattice (shard.go). Zero or
	// negative (the default) runs the lattice above DefaultMatrixThreshold
	// with defaultShardCount shards and the matrix at or below it; a
	// positive value selects the lattice with that many shards at any
	// deployment size (the evaluator oracle pins S ∈ {1, 4, 8}). The
	// shard count is a work-partition width, not a correctness parameter:
	// results are bit-identical at any value, and values above the
	// lattice's column or occupied-cell count act as that count.
	Shards int
}

// FastChannel is the scalable SINR slot evaluator. It produces receptions
// bit-identical to Channel.SlotReceptions (the naive reference) while
// avoiding its per-slot costs:
//
//   - all result and scratch storage lives in a per-channel arena that is
//     reused across slots (no per-slot map or slice allocations), and only
//     the receivers that decoded something in the previous slot are reset,
//     so a quiet slot costs O(k) rather than O(n);
//   - one spatial index serves both regimes: geom.CellIndex buckets the
//     deployment into cells of side cullRadius, shared by every fork of
//     the evaluator;
//   - up to DefaultMatrixThreshold nodes (the matrix regime) the received
//     powers are precomputed once into an n×n matrix, eliminating every
//     path-loss evaluation from the slot path; dense slots stream receivers
//     against the cached rows;
//   - above DefaultMatrixThreshold (or when FastOptions.Shards pins it) the
//     evaluator runs the cell lattice (shard.go): the certified-bounds
//     tables of bounds.go — per-cell transmitter aggregates bound each
//     receiver's interference from above and below, the decode decision is
//     emitted directly when the certificates agree under a k·ulp rounding
//     slack, and only the thin ambiguous band around β refines through the
//     exact per-receiver arithmetic — sit on top of the cell index: no
//     matrix or per-pair cache exists, memory is O(occupied cells + nodes),
//     every power is computed by the fused pairPower kernel, and receivers
//     are scanned in spatial shards whose knowledge of remote transmitters
//     is certified aggregate bounds;
//   - in either regime sparse slots (estimated transmitter-ball coverage
//     below sparseCoverageMax) take the sender-centric path, which walks
//     the cell index to enumerate only the receivers inside some
//     transmitter's ball — O(Σ_s |ball(s)|) work plus |candidates|·k
//     arithmetic — instead of scanning all n receivers;
//   - receivers are scanned by a persistent pool of worker goroutines
//     (internal/workpool) woken by a channel handoff instead of spawned per
//     slot; the partition is deterministic, so results are identical at any
//     worker count.
//
// The regime decision is made once, at construction. A lattice whose
// extent would make its offset tables exceed boundsOffsetsPerCell entries
// per occupied cell — outlier geometry such as two clusters a thousand
// ranges apart, at construction or after a churn epoch — builds no tables
// and declines the certificates, so its dense slots run the exact
// cell-culled scan. Within the chosen regime
// each slot then dispatches — sparse when the estimated candidate coverage
// is low, on the lattice certified bounds when the per-slot cost model
// wins, the exact dense scan otherwise — and no path changes results: a
// sender whose lone-transmitter SINR is below β cannot be decoded under
// any interference (the denominator only grows), the sparse path skips
// exactly the receivers whose every received power is provably below that
// bound, the lattice emits only decisions its conservative certificates
// prove identical to the exact arithmetic's (bounds.go and shard.go
// document the argument), and every threshold carries slack so borderline
// cases fall through to the exact reference arithmetic.
//
// The Reception slice returned by SlotReceptions is owned by the evaluator
// and valid only until the next call; callers that retain it must copy.
// SlotReceptions must not be called concurrently with itself.
type FastChannel struct {
	ch      *Channel
	pos     []geom.Point
	n       int
	workers int

	// SoA mirror of pos plus the hoisted path-loss constants: the pair
	// loops read coordinates from two flat float64 slices (twice the
	// density of a []Point per cache line, and indexable without the
	// struct field loads) and dispatch the path-loss exponent once per
	// evaluator instead of once per pair. pairPower is the fused kernel
	// over this layout; it is bit-identical to
	// params.ReceivedPower(Point.Dist) by construction (same subtraction,
	// square, Sqrt, clamp and α-multiplication sequence), which
	// TestPairPowerKernelBitIdentical pins. Mobility epochs patch px/py in
	// step with pos.
	px, py []float64
	power  float64
	alpha  float64
	alphaK int // 2, 3, 4 select the multiplication fast paths; 0 → math.Pow

	beta, noise float64
	// cullPower is the received power below which a sender provably cannot
	// be decoded; cullRadius is the distance beyond which received power is
	// provably below cullPower. Both carry cullSlack.
	cullPower  float64
	cullRadius float64

	// mat is the received-power matrix (mat[r*n+s]) of the matrix regime,
	// nil otherwise.
	mat []float64

	sparseFactor int
	// box is the (monotonically expanded) bounding box of the deployment and
	// logBallMiss is ln(1 - ballArea/deploymentArea) derived from it,
	// precomputed for the adaptive per-slot coverage estimate
	// 1-exp(k·logBallMiss). Mobility epochs expand the box by the changed
	// positions (it never shrinks below a past extent — the estimate only
	// steers dispatch, never correctness) and refresh logBallMiss.
	box         geom.Rect
	logBallMiss float64

	pool *workpool.Pool
	// chunkFn is the loop body of the current parallel scan; RunChunk
	// dispatches to it. Method expressions rather than closures keep the
	// slot path allocation-free.
	chunkFn func(f *FastChannel, lo, hi, worker int)

	out  []Reception
	isTx []bool
	rows [][]float64 // per-worker received-power scratch
	tx   []int       // transmitter set of the slot being evaluated

	// decoded[w] lists the receivers worker w decoded a frame for in the
	// previous slot; resetting exactly those entries restores the all -1
	// invariant of out without an O(n) sweep.
	decoded [][]int

	// Sparse-path scratch: the deduplicated candidate receivers of the
	// current slot and the visit stamps that dedup the ball union without
	// clearing between slots.
	candidates []int
	mark       []uint32
	markGen    uint32

	// The spatial index (bounds.go): bholder shares it across all forks of
	// a deployment and bidx caches it locally. Both regimes hold its cell
	// decomposition; the lattice (shards > 0) adds the partition and the
	// certified-bounds tables in place of the matrix. Everything below them
	// is per-evaluator lattice slot scratch. superFarLo/Hi/Max hold the
	// far-field interference bounds of each receiver supercell for the
	// slot being evaluated.
	shards        int
	boundsFactor  int
	bholder       *boundsHolder
	bidx          *boundsIndex
	txCellCnt     []int32 // per cell: transmitter count of the current slot
	txCellStart   []int32 // per cell: CSR offset into txByCell
	txCellFill    []int32 // per cell: scatter cursor while building the CSR
	txByCell      []int32 // slot transmitters grouped by cell
	occT          []int32 // occupied transmitter cells, in tx-encounter order
	occS          []int32 // occupied transmitter supercells, in occT-encounter order
	superTxCnt    []int32 // per supercell: transmitter count of the current slot
	superOccCnt   []int32 // per supercell: occupied-cell count of the current slot
	superOccStart []int32 // per supercell: CSR offset into occTBySuper
	superOccFill  []int32 // per supercell: scatter cursor while building the CSR
	occTBySuper   []int32 // occupied transmitter cells grouped by supercell
	superFarLo    []float64
	superFarHi    []float64
	superFarMax   []float64
	// Per-slot certificate constants (prepareShard) and lifetime counters
	// (read via BoundsStats, written with atomics from the chunk workers).
	slackUp, slackDown float64
	betaHi, betaLo     float64
	boundsSlots        uint64
	boundsReceivers    uint64
	boundsRefined      uint64
}

var _ ParallelEvaluator = (*FastChannel)(nil)

// NewFastChannel returns a fast evaluator over the given channel. At most
// one FastOptions value may be supplied; omitting it selects the defaults.
// Deployments of at most DefaultMatrixThreshold nodes get the matrix
// regime, larger ones (or any size when Shards is positive) the cell
// lattice. Both build the shared cell index here.
func NewFastChannel(c *Channel, opts ...FastOptions) *FastChannel {
	var opt FastOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	n := c.NumNodes()
	f := &FastChannel{
		ch:        c,
		pos:       c.pos,
		n:         n,
		beta:      c.params.Beta,
		noise:     c.params.Noise,
		power:     c.params.Power,
		alpha:     c.params.Alpha,
		alphaK:    alphaCase(c.params.Alpha),
		cullPower: c.params.Beta * c.params.Noise * (1 - cullSlack),
		out:       make([]Reception, n),
		isTx:      make([]bool, n),
		mark:      make([]uint32, n),
		px:        make([]float64, n),
		py:        make([]float64, n),
		pool:      workpool.New(),
	}
	for i, p := range f.pos {
		f.px[i], f.py[i] = p.X, p.Y
	}
	f.SetWorkers(0)
	f.sparseFactor = opt.SparseFactor
	f.boundsFactor = opt.BoundsFactor
	for i := range f.out {
		f.out[i].Sender = -1
	}
	// Any sender within the near-field clamp distance (1) radiates maximum
	// power, so the candidate radius never drops below it.
	f.cullRadius = math.Max(c.params.Range(), 1) * (1 + cullSlack)
	f.box = geom.BoundingBox(f.pos)
	f.updateCoverageModel()
	f.shards = resolveShards(opt.Shards, n)
	f.bholder = &boundsHolder{}
	f.ensureIndex()
	if f.shards == 0 {
		f.mat = buildPowerMatrix(c)
	}
	return f
}

// alphaCase maps a path-loss exponent to the multiplication fast path
// pairPower and Params.ReceivedPower share: 2, 3 or 4 for the integer
// exponents, 0 for the generic math.Pow fallback.
func alphaCase(alpha float64) int {
	switch alpha {
	case 2:
		return 2
	case 3:
		return 3
	case 4:
		return 4
	}
	return 0
}

// pairPower is the fused path-loss kernel over the SoA layout: the received
// power at (bx, by) from a transmitter at (ax, ay). It evaluates exactly
// the reference composition params.ReceivedPower(Point.Dist) — the same
// coordinate subtractions, the same dx²+dy² and Sqrt, the same near-field
// clamp, and the same α-specific multiplication sequence (ReceivedPower
// documents why the multiplications are bit-identical to math.Pow) — with
// the Params value copy, the method dispatch and the per-pair exponent
// switch hoisted into evaluator fields, so the result is bit-identical to
// the naive evaluator's on every input while the pair loops stay free of
// calls and table loads.
//
//sinrlint:allow powfree generic-α fallback in the final return; shipped exponents take the multiplication cases
//sinrlint:hotpath
func (f *FastChannel) pairPower(ax, ay, bx, by float64) float64 {
	dx := ax - bx
	dy := ay - by
	d := math.Sqrt(dx*dx + dy*dy)
	if d < 1 {
		d = 1
	}
	switch f.alphaK {
	case 3:
		return f.power / (d * d * d)
	case 2:
		return f.power / (d * d)
	case 4:
		dd := d * d
		return f.power / (dd * dd)
	}
	return f.power / math.Pow(d, f.alpha)
}

// updateCoverageModel derives logBallMiss — the per-ball miss probability of
// the adaptive sparse crossover — from the current bounding box. Clamping
// each box dimension to the ball diameter keeps the density estimate
// meaningful for degenerate (line-like or tiny) deployments: the reachable
// region around a line of length L is a strip of area ≈ L·2r, not the
// zero-area box.
func (f *FastChannel) updateCoverageModel() {
	area := math.Max(f.box.Width(), 2*f.cullRadius) * math.Max(f.box.Height(), 2*f.cullRadius)
	miss := 1 - math.Pi*f.cullRadius*f.cullRadius/area
	if miss <= 0 {
		// A single ball covers the whole deployment: the estimate is total
		// coverage for any k ≥ 1, so the adaptive heuristic always scans
		// densely.
		f.logBallMiss = math.Inf(-1)
	} else {
		f.logBallMiss = math.Log(miss)
	}
}

// Fork returns an evaluator that shares f's immutable state — the underlying
// channel, node positions, the cell index, the precomputed n×n power matrix
// of the matrix regime, and the offset power tables and shard partition of
// the lattice — while owning private mutable scratch
// (reception slice, transmitter flags, per-worker rows, sparse candidate
// buffers, per-cell aggregates and counters, worker pool). Forks
// may evaluate slots concurrently with each other and with f. The
// experiment scheduler hands each trial worker its own fork, so the power
// matrix or cell index of a sweep point's deployment is built once and
// shared across every parallel trial instead of being rebuilt per trial.
func (f *FastChannel) Fork() *FastChannel {
	g := &FastChannel{
		ch:           f.ch,
		pos:          f.pos,
		n:            f.n,
		px:           f.px,
		py:           f.py,
		power:        f.power,
		alpha:        f.alpha,
		alphaK:       f.alphaK,
		workers:      f.workers,
		beta:         f.beta,
		noise:        f.noise,
		cullPower:    f.cullPower,
		cullRadius:   f.cullRadius,
		mat:          f.mat,
		sparseFactor: f.sparseFactor,
		boundsFactor: f.boundsFactor,
		bholder:      f.bholder,
		bidx:         f.bidx,
		shards:       f.shards,
		box:          f.box,
		logBallMiss:  f.logBallMiss,
		out:          make([]Reception, f.n),
		isTx:         make([]bool, f.n),
		mark:         make([]uint32, f.n),
		pool:         workpool.New(),
	}
	for i := range g.out {
		g.out[i].Sender = -1
	}
	if g.shards > 0 {
		// Cell lattice: the shared index is immutable between epochs; grow
		// private per-slot scratch and counters (a fork's BoundsStats start
		// at zero).
		g.growShardScratch()
	}
	return g
}

// Close releases the evaluator's worker-pool goroutines. It is optional —
// an unreachable evaluator's pool is reclaimed by the runtime — but tests
// and drivers that construct many evaluators call it to bound the live
// goroutine count deterministically.
func (f *FastChannel) Close() { f.pool.Close() }

// ColumnStats is the counter set of the per-sender power-column cache that
// FastChannel no longer has.
//
// Deprecated: FastChannel keeps no column cache; FastChannel.ColumnStats
// always returns the zero value.
type ColumnStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Resident  int
}

// ColumnStats returns the zero value.
//
// Deprecated: FastChannel keeps no column cache.
func (f *FastChannel) ColumnStats() ColumnStats { return ColumnStats{} }

// buildPowerMatrix precomputes ReceivedPower(Dist(s, r)) for every node
// pair, exploiting symmetry to halve the math.Pow calls.
func buildPowerMatrix(c *Channel) []float64 {
	n := c.NumNodes()
	mat := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for s := r; s < n; s++ {
			pw := c.params.ReceivedPower(c.Dist(s, r))
			mat[r*n+s] = pw
			mat[s*n+r] = pw
		}
	}
	return mat
}

// Params implements ChannelEvaluator.
func (f *FastChannel) Params() Params { return f.ch.Params() }

// NumNodes implements ChannelEvaluator.
func (f *FastChannel) NumNodes() int { return f.n }

// Channel returns the underlying naive channel.
func (f *FastChannel) Channel() *Channel { return f.ch }

// SetWorkers implements ParallelEvaluator. It resolves and caches the
// effective worker count once, instead of consulting runtime.GOMAXPROCS on
// every slot. A new evaluator uses GOMAXPROCS workers; sim.Engine sets its
// own count.
func (f *FastChannel) SetWorkers(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > f.n {
		workers = f.n
	}
	if workers < 1 {
		workers = 1
	}
	f.workers = workers
}

// RunChunk implements workpool.Task by dispatching to the loop body of the
// current scan; the evaluator itself is the task value, so submitting a
// scan to the pool allocates nothing.
func (f *FastChannel) RunChunk(lo, hi, worker int) { f.chunkFn(f, lo, hi, worker) }

// workerRow returns worker's per-slot received-power scratch row sized for
// the current transmitter set, growing it when a larger slot arrives. The
// growth is amortized ownership, not steady-state allocation: capacity only
// ratchets up to the largest |tx| seen by this worker, so the alloc-free
// slot gates (TestEngineStepAllocFree, macbench allocs/op) never re-enter
// the make. Keeping the single make here leaves the chunk kernels
// statically allocation-free for the hotalloc analyzer.
func (f *FastChannel) workerRow(worker int) []float64 {
	row := f.rows[worker]
	if cap(row) < len(f.tx) {
		row = make([]float64, len(f.tx))
		f.rows[worker] = row
	}
	return row[:len(f.tx)]
}

// runChunks evaluates fn over [0, n) on the worker pool, growing the
// per-worker scratch first.
func (f *FastChannel) runChunks(n int, fn func(f *FastChannel, lo, hi, worker int)) {
	workers := f.workers
	if len(f.rows) < workers {
		f.rows = append(f.rows, make([][]float64, workers-len(f.rows))...)
	}
	for len(f.decoded) < workers {
		f.decoded = append(f.decoded, nil)
	}
	f.chunkFn = fn
	f.pool.Run(n, workers, f)
	f.chunkFn = nil
}

// SlotReceptions implements ChannelEvaluator. The returned slice is reused
// by the next call.
func (f *FastChannel) SlotReceptions(transmitters []int) []Reception {
	out := f.out
	// Between calls out is all -1 except the entries the previous slot
	// decoded; resetting those restores the invariant without touching the
	// other n-k receivers.
	for w, dec := range f.decoded {
		for _, r := range dec {
			out[r].Sender = -1
		}
		f.decoded[w] = dec[:0]
	}
	if len(transmitters) == 0 {
		return out
	}
	distinct := 0
	for _, t := range transmitters {
		if !f.isTx[t] {
			f.isTx[t] = true
			distinct++
		}
	}
	if distinct == f.n {
		// Every node transmits: half-duplex leaves no listener, so the
		// all--1 state out is already in is the exact result. (Counting
		// distinct ids, not len(transmitters), keeps this sound when the
		// caller passes duplicates.) Skipping the dispatch entirely keeps
		// all-transmit probes at O(k) on every tier.
		for _, t := range transmitters {
			f.isTx[t] = false
		}
		return out
	}
	f.tx = transmitters
	switch {
	case f.useSparse(len(transmitters)):
		f.buildCandidates(transmitters)
		if f.mat != nil {
			f.runChunks(len(f.candidates), (*FastChannel).sparseMatrixChunk)
		} else {
			f.runChunks(len(f.candidates), (*FastChannel).sparsePairChunk)
		}
	case f.shards > 0:
		f.shardSlot(transmitters)
	default:
		f.runChunks(f.n, (*FastChannel).matrixChunk)
	}
	f.tx = nil
	for _, t := range transmitters {
		f.isTx[t] = false
	}
	return out
}

// useSparse decides the path of a slot with k ≥ 1 transmitters: the
// explicit SparseFactor override when one was configured, otherwise the
// adaptive coverage estimate (see sparseCoverageMax).
func (f *FastChannel) useSparse(k int) bool {
	switch {
	case f.sparseFactor < 0:
		return false
	case f.sparseFactor > 0:
		return k*f.sparseFactor <= f.n
	default:
		return 1-math.Exp(float64(k)*f.logBallMiss) <= sparseCoverageMax
	}
}

// buildCandidates fills f.candidates with the deduplicated union of the
// transmitters' culling balls: exactly the receivers for which some
// transmitter lies within cullRadius. Every other node's received powers
// are all provably below cullPower, so its reception is -1 without
// evaluation. The balls are walked on the cell index (the 3×3 cell window
// suffices because the ball radius equals the cell side), and the visit
// stamps dedup overlapping balls without clearing state between slots.
func (f *FastChannel) buildCandidates(tx []int) {
	f.markGen++
	if f.markGen == 0 { // stamp wraparound: reset once every 2^32 slots
		for i := range f.mark {
			f.mark[i] = 0
		}
		f.markGen = 1
	}
	gen := f.markGen
	f.candidates = f.candidates[:0]
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

// The chunk evaluators below share one decode structure — total received
// power over all transmitters, then the first sender meeting the SINR
// threshold wins (at most one can, since β > 1). The matrix paths gather
// listeners into 4-wide blocks whose interference totals are accumulated in
// one shared pass over the transmitters (matrixTotals4): each receiver's
// total is still added in exact transmitter order by its own accumulator,
// so every total — and therefore every decode — is bit-identical to the
// scalar loop's, while the four independent add chains overlap instead of
// serialising on one accumulator's add latency. Every other path computes
// the powers with pairPower through decodeExact.

// matrixTotals4 sums four receivers' row powers over the slot's
// transmitters in one pass. Four independent accumulators, each added in
// transmitter order, make every lane's sum the exact floating-point result
// of the scalar loop; the four-stream layout is also the shape
// SIMD-capable compilers vectorise (independent lanes, no cross-lane
// reduction).
//
//sinrlint:hotpath
func matrixTotals4(tx []int, row0, row1, row2, row3 []float64) (t0, t1, t2, t3 float64) {
	for _, s := range tx {
		t0 += row0[s]
		t1 += row1[s]
		t2 += row2[s]
		t3 += row3[s]
	}
	return
}

// matrixDecodeRow applies the decode scan to one receiver given its matrix
// row and precomputed interference total.
//
//sinrlint:hotpath
func (f *FastChannel) matrixDecodeRow(r int, row []float64, total float64, dec []int) []int {
	for _, s := range f.tx {
		signal := row[s]
		if signal < f.cullPower {
			continue // cannot meet β even without interference
		}
		if signal/(total-signal+f.noise) >= f.beta {
			f.out[r].Sender = s
			dec = append(dec, r)
			break
		}
	}
	return dec
}

// matrixBlock4 evaluates four listeners against the cached power matrix:
// one shared transmitter pass for the four totals, then per-receiver
// decode scans in block order (ascending within the chunk, so the decode
// list order matches the scalar loop's).
//
//sinrlint:hotpath
func (f *FastChannel) matrixBlock4(blk *[4]int, dec []int) []int {
	m, n := f.mat, f.n
	row0 := m[blk[0]*n : blk[0]*n+n]
	row1 := m[blk[1]*n : blk[1]*n+n]
	row2 := m[blk[2]*n : blk[2]*n+n]
	row3 := m[blk[3]*n : blk[3]*n+n]
	t0, t1, t2, t3 := matrixTotals4(f.tx, row0, row1, row2, row3)
	dec = f.matrixDecodeRow(blk[0], row0, t0, dec)
	dec = f.matrixDecodeRow(blk[1], row1, t1, dec)
	dec = f.matrixDecodeRow(blk[2], row2, t2, dec)
	dec = f.matrixDecodeRow(blk[3], row3, t3, dec)
	return dec
}

// matrixScalar evaluates one listener against the cached power matrix — the
// remainder path for blocks of fewer than four listeners.
func (f *FastChannel) matrixScalar(r int, dec []int) []int {
	row := f.mat[r*f.n : r*f.n+f.n]
	total := 0.0
	for _, s := range f.tx {
		total += row[s]
	}
	return f.matrixDecodeRow(r, row, total, dec)
}

// matrixChunk evaluates receivers [lo, hi) against the cached power matrix,
// in 4-wide listener blocks with a scalar remainder.
//
//sinrlint:hotpath
func (f *FastChannel) matrixChunk(lo, hi, worker int) {
	dec := f.decoded[worker]
	var blk [4]int
	nb := 0
	for r := lo; r < hi; r++ {
		if f.isTx[r] {
			continue // half-duplex: a transmitting node cannot receive
		}
		blk[nb] = r
		nb++
		if nb == 4 {
			dec = f.matrixBlock4(&blk, dec)
			nb = 0
		}
	}
	for i := 0; i < nb; i++ {
		dec = f.matrixScalar(blk[i], dec)
	}
	f.decoded[worker] = dec
}

// sparseMatrixChunk evaluates the slot's candidate receivers [lo, hi) (by
// candidate index) against the cached power matrix. The arithmetic is
// identical to matrixChunk — the same 4-wide blocks, filled in candidate
// order; only the receiver enumeration differs.
//
//sinrlint:hotpath
func (f *FastChannel) sparseMatrixChunk(lo, hi, worker int) {
	dec := f.decoded[worker]
	var blk [4]int
	nb := 0
	for i := lo; i < hi; i++ {
		r := f.candidates[i]
		if f.isTx[r] {
			continue
		}
		blk[nb] = r
		nb++
		if nb == 4 {
			dec = f.matrixBlock4(&blk, dec)
			nb = 0
		}
	}
	for i := 0; i < nb; i++ {
		dec = f.matrixScalar(blk[i], dec)
	}
	f.decoded[worker] = dec
}

// decodeExact is the exact per-receiver arithmetic of every path without a
// power matrix: receiver r's power from each transmitter by pairPower into
// the worker's row, the interference total summed in transmitter order,
// then the first sender meeting the SINR threshold decodes. It returns dec
// with r appended when r decoded a frame.
//
//sinrlint:hotpath
func (f *FastChannel) decodeExact(r int, row []float64, dec []int) []int {
	rx, ry := f.px[r], f.py[r]
	total := 0.0
	for j, s := range f.tx {
		pw := f.pairPower(f.px[s], f.py[s], rx, ry)
		row[j] = pw
		total += pw
	}
	for j, s := range f.tx {
		signal := row[j]
		if signal < f.cullPower {
			continue // cannot meet β even without interference
		}
		if signal/(total-signal+f.noise) >= f.beta {
			f.out[r].Sender = s
			dec = append(dec, r)
			break
		}
	}
	return dec
}

// sparsePairChunk evaluates the slot's candidate receivers [lo, hi) (by
// candidate index) on the lattice: candidates are exactly the receivers a
// culling probe would pass, so each pays the exact O(k) row directly.
//
//sinrlint:hotpath
func (f *FastChannel) sparsePairChunk(lo, hi, worker int) {
	dec := f.decoded[worker]
	row := f.workerRow(worker)
	for i := lo; i < hi; i++ {
		r := f.candidates[i]
		if f.isTx[r] {
			continue
		}
		dec = f.decodeExact(r, row, dec)
	}
	f.decoded[worker] = dec
}
