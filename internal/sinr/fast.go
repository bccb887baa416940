package sinr

import (
	"math"
	"runtime"

	"sinrmac/internal/geom"
	"sinrmac/internal/workpool"
)

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
	// (boundsBetaMin) is respected in every mode.
	BoundsFactor int
	// Shards is the shard count of the cell lattice (shard.go). Zero or
	// negative (the default) selects defaultShardCount; a positive value
	// selects that many shards (the evaluator oracle pins S ∈ {1, 4, 8}).
	// The shard count is a work-partition width, not a correctness
	// parameter: results are bit-identical at any value, and values above
	// the lattice's column or occupied-cell count act as that count.
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
//   - one spatial index, geom.CellIndex, buckets the deployment into
//     cells of side cullRadius and is shared by every fork of the
//     evaluator;
//   - the evaluator runs the cell lattice (shard.go) at every deployment
//     size: the certified-bounds tables of bounds.go — per-cell transmitter
//     aggregates bound each receiver's interference from above and below,
//     the decode decision is emitted directly when the certificates agree
//     under a k·ulp rounding slack, and only the thin ambiguous band around
//     β refines through the exact per-receiver arithmetic — sit on top of
//     the cell index: no per-pair state exists, memory is
//     O(occupied cells + nodes), every power is computed by the powerRow
//     kernel, one call per receiver row, and receivers are scanned in
//     spatial shards whose knowledge of remote transmitters is certified
//     aggregate bounds;
//   - sparse slots (estimated transmitter-ball coverage below
//     sparseCoverageMax) take the sender-centric path, which walks the cell
//     index to enumerate only the receivers inside some transmitter's
//     ball — O(Σ_s |ball(s)|) work plus |candidates|·k arithmetic — instead
//     of scanning all n receivers;
//   - receivers are scanned by a persistent pool of worker goroutines
//     (internal/workpool) woken by a channel handoff instead of spawned per
//     slot; the partition is deterministic, so results are identical at any
//     worker count.
//
// A lattice whose extent would make its offset tables exceed
// boundsOffsetsPerCell entries per occupied cell — outlier geometry such
// as two clusters a thousand ranges apart, at construction or after a
// churn epoch — builds no tables and declines the certificates, so its
// dense slots run the exact cell-culled scan. Each slot dispatches —
// sparse when the estimated candidate coverage is low, on the certified
// bounds when the per-slot cost model wins, the exact dense scan
// otherwise — and no path changes results: a sender whose
// lone-transmitter SINR is below β cannot be decoded under any
// interference (the denominator only grows), the sparse path skips
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
	// loops read coordinates from flat float64 slices (twice the density
	// of a []Point per cache line, and indexable without the struct field
	// loads). powerRow is the row kernel over this layout: one call
	// computes a receiver's powers from a whole coordinate row, with the
	// path-loss exponent dispatched once per row rather than once per pair
	// (a per-pair function holding the switch is too large to inline). It
	// is bit-identical to params.ReceivedPower(Point.Dist) by construction
	// (same subtraction, square, Sqrt, clamp and α-multiplication
	// sequence), which TestPairPowerKernelBitIdentical pins. Mobility
	// epochs patch px/py in step with pos.
	px, py []float64
	power  float64
	alpha  float64
	alphaK int // 3, 4 select the multiplication fast paths; 0 → math.Pow

	beta, noise float64
	// cullPower is the received power below which a sender provably cannot
	// be decoded; cullRadius is the distance beyond which received power is
	// provably below cullPower. Both carry cullSlack.
	cullPower  float64
	cullRadius float64

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

	out     []Reception
	isTx    []bool
	scratch []workerScratch // per-worker chunk scratch
	tx      []int           // transmitter set of the slot being evaluated
	// txX, txY gather the coordinates of tx once per slot, the coordinate
	// row every exact decode hands to powerRow.
	txX, txY []float64

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
	// a deployment and bidx caches it locally: the cell decomposition, the
	// shard partition and the certified-bounds tables. Everything below
	// them is per-evaluator lattice slot scratch. superFarLo/Hi/Max hold the
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
// It builds the shared cell index and the lattice's tables here.
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
	f.shards = resolveShards(opt.Shards)
	f.bholder = &boundsHolder{}
	f.ensureIndex()
	return f
}

// alphaCase maps a path-loss exponent to the multiplication fast path
// powerRow and Params.ReceivedPower share: 3 or 4 for the integer
// exponents, 0 for the generic math.Pow fallback (Params.Validate admits
// only α > 2).
func alphaCase(alpha float64) int {
	switch alpha {
	case 3:
		return 3
	case 4:
		return 4
	}
	return 0
}

// powerRow is the path-loss row kernel over the SoA layout: it sets row[j]
// to the power received at (rx, ry) from a transmitter at (xs[j], ys[j])
// for every j < len(xs), and returns the row's sum, added in index order.
// Each entry evaluates exactly the reference composition
// params.ReceivedPower(Point.Dist) — the same coordinate subtraction, the
// same dx²+dy² and Sqrt, the same near-field clamp and the same
// α-specific multiplication sequence (ReceivedPower documents why the
// multiplications are bit-identical to math.Pow) — so every entry, and a
// total summed in the caller's transmitter order, is bit-identical to the
// naive evaluator's arithmetic.
//
// The exponent switch sits outside the loops, one loop body per case: a
// per-pair function with the switch inside exceeds the inliner's budget,
// so every pair would pay a call and a switch, while each body here is
// straight-line arithmetic (math.Sqrt is an intrinsic).
//
//sinrlint:hotpath
func (f *FastChannel) powerRow(xs, ys []float64, rx, ry float64, row []float64) (total float64) {
	ys = ys[:len(xs)]
	row = row[:len(xs)]
	p := f.power
	switch f.alphaK {
	case 3:
		for j, x := range xs {
			dx, dy := x-rx, ys[j]-ry
			d := math.Sqrt(dx*dx + dy*dy)
			if d < 1 {
				d = 1
			}
			pw := p / (d * d * d)
			row[j] = pw
			total += pw
		}
	case 4:
		for j, x := range xs {
			dx, dy := x-rx, ys[j]-ry
			d := math.Sqrt(dx*dx + dy*dy)
			if d < 1 {
				d = 1
			}
			dd := d * d
			pw := p / (dd * dd)
			row[j] = pw
			total += pw
		}
	default:
		alpha := f.alpha
		for j, x := range xs {
			dx, dy := x-rx, ys[j]-ry
			d := math.Sqrt(dx*dx + dy*dy)
			if d < 1 {
				d = 1
			}
			//sinrlint:allow powfree generic-α case; the shipped exponents take the multiplication loops above
			pw := p / math.Pow(d, alpha)
			row[j] = pw
			total += pw
		}
	}
	return total
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
// channel, node positions, the cell index, and the lattice's offset power
// tables and shard partition — while owning private mutable scratch
// (reception slice, transmitter flags, per-worker scratch, sparse candidate
// buffers, per-cell aggregates and counters, worker pool). Forks
// may evaluate slots concurrently with each other and with f. The
// experiment scheduler hands each trial worker its own fork, so the cell
// index and tables of a sweep point's deployment are built once and shared
// across every parallel trial instead of being rebuilt per trial. The
// shared index is immutable between epochs; a fork's BoundsStats start at
// zero.
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
	g.growShardScratch()
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

// workerScratch is one worker's chunk scratch: the received-power row of
// the receiver being decoded, one entry per slot transmitter, and the
// near-field transmitters of the receiver cell being certified (their
// coordinates and ids, gathered once per cell in shardBoundsChunk).
type workerScratch struct {
	row          []float64
	nearX, nearY []float64
	nearS        []int32
}

// workerRow returns worker's per-slot received-power scratch row sized for
// the current transmitter set, growing it when a larger slot arrives. The
// growth is amortized ownership, not steady-state allocation: capacity only
// ratchets up to the largest |tx| seen by this worker, so the alloc-free
// slot gates (TestEngineStepAllocFree, macbench allocs/op) never re-enter
// the make. Keeping the single make here leaves the chunk kernels
// statically allocation-free for the hotalloc analyzer.
func (f *FastChannel) workerRow(worker int) []float64 {
	ws := &f.scratch[worker]
	if cap(ws.row) < len(f.tx) {
		ws.row = make([]float64, len(f.tx))
	}
	return ws.row[:len(f.tx)]
}

// nearList returns worker's near-transmitter lists with room for m
// entries, growing them (to the largest m seen, the same amortized
// ownership as workerRow) when a receiver cell has more near transmitters
// than any before it.
func (f *FastChannel) nearList(worker, m int) (xs, ys []float64, ids []int32) {
	ws := &f.scratch[worker]
	if cap(ws.nearS) < m {
		ws.nearX = make([]float64, m)
		ws.nearY = make([]float64, m)
		ws.nearS = make([]int32, m)
	}
	return ws.nearX[:m], ws.nearY[:m], ws.nearS[:m]
}

// gatherTx fills txX and txY with the coordinates of the slot's
// transmitters, in transmitter order: the coordinate row every exact
// decode hands to powerRow.
func (f *FastChannel) gatherTx() {
	k := len(f.tx)
	if cap(f.txX) < k {
		f.txX = make([]float64, k)
		f.txY = make([]float64, k)
	}
	f.txX, f.txY = f.txX[:k], f.txY[:k]
	for j, s := range f.tx {
		f.txX[j], f.txY[j] = f.px[s], f.py[s]
	}
}

// runChunks evaluates fn over [0, n) on the worker pool, growing the
// per-worker scratch first.
func (f *FastChannel) runChunks(n int, fn func(f *FastChannel, lo, hi, worker int)) {
	workers := f.workers
	if len(f.scratch) < workers {
		f.scratch = append(f.scratch, make([]workerScratch, workers-len(f.scratch))...)
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
	f.gatherTx()
	if f.useSparse(len(transmitters)) {
		f.buildCandidates(transmitters)
		f.runChunks(len(f.candidates), (*FastChannel).sparsePairChunk)
	} else {
		f.shardSlot(transmitters)
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

// decodeExact is the exact per-receiver arithmetic every path shares:
// receiver r's power from each transmitter by one powerRow call over the
// slot's gathered transmitter coordinates (txX, txY) into the worker's row,
// the interference total summed in transmitter order, then the first
// sender meeting the SINR threshold decodes (at most one can, since β > 1).
// It returns dec with r appended when r decoded a frame.
//
// The scan skips, besides the senders below cullPower, every sender no
// stronger than one it already rejected: in floating point
// signal/(total−signal+N) is monotone non-decreasing in the signal (each
// rounded operation is monotone, and total ≥ every term it sums), so such
// a sender falls short of β too. Only senders that beat every earlier
// candidate pay the division.
//
//sinrlint:hotpath
func (f *FastChannel) decodeExact(r int, row []float64, dec []int) []int {
	total := f.powerRow(f.txX, f.txY, f.px[r], f.py[r], row)
	rejected := 0.0 // the strongest signal the scan has ruled out
	for j, s := range f.tx {
		signal := row[j]
		if signal < f.cullPower || signal <= rejected {
			continue // cannot meet β, even without interference or beside a stronger failure
		}
		if signal/(total-signal+f.noise) >= f.beta {
			f.out[r].Sender = s
			dec = append(dec, r)
			break
		}
		rejected = signal
	}
	return dec
}

// sparsePairChunk evaluates the slot's candidate receivers [lo, hi) (by
// candidate index): candidates are exactly the receivers a culling probe
// would pass, so each pays the exact O(k) row directly.
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
