// Package sim provides the synchronous, slotted simulation engine that
// drives protocol automata over the SINR channel.
//
// Time proceeds in discrete slots. In every slot the engine
//
//  1. asks every node automaton whether it transmits a frame (Tick),
//  2. evaluates the SINR reception predicate at every listening node
//     through the configured sinr.ChannelEvaluator (the naive reference
//     scan by default, the fast arena/grid engine via Config.Evaluator), and
//  3. delivers the decoded frame, if any, to each receiver (Receive).
//
// Node automata never see positions, the set of transmitters, or other
// nodes' state: all coordination happens through transmitted frames, as in
// the paper's model. The engine supports both a sequential driver and a
// worker-pool parallel driver; both produce identical executions for
// well-behaved (share-nothing) nodes.
//
// # Parallel driver
//
// Step, Run and RunBatch all go through one slot loop. It runs the phases
// either inline (the sequential driver) or inside one fused workpool
// session (the parallel driver). In the session the pool's helpers are
// woken at most once per call, the phase hand-offs are spin-then-park
// barriers instead of full park/unpark round trips, and every phase is
// split across all resolved workers.
//
// The choice is static: Config.Parallel runs the parallel driver whenever
// the resolved worker count exceeds 1. At GOMAXPROCS = 1 (or Workers: 1)
// that is the sequential loop. The engine reads no wall clock. On a 2-CPU
// host the parallel driver on 2 workers ran the combined MAC at n = 4096 in
// 1.24–1.58 s against 2.31–2.41 s sequential, and Decay in 1.68–2.63 s
// against 2.25–2.91 s. On the synthetic √n-transmitter step it cost 1.11×
// at n = 2000 (206 vs 186 µs/slot) and won at n = 5000.
//
// # Frame lifecycle
//
// The steady-state slot path allocates nothing. The engine owns a pool of
// frames — one per node, allocated once — and hands node i its frame on
// every Tick; the node fills it and returns true to transmit. Frame kinds
// are interned integers (RegisterFrameKind), and the common bcast-message
// payload travels in the typed Frame.Msg slot instead of a boxed
// interface. Pooled frames are valid only until the end of the slot they
// were transmitted in: nodes and observers that retain a frame's payload
// must copy it, and stale fields from earlier slots are never cleared (see
// the Frame documentation for the full rules).
//
// The parallel driver's tick and receive phases, and a parallel channel
// evaluator's receiver scan, all run on one persistent worker pool
// (internal/workpool) whose goroutines are parked between phases rather
// than respawned per slot.
//
// Deployments may churn mid-execution: Engine.ApplyEpoch applies a
// committed topology epoch between slots — the evaluator patches its
// state, surviving automata keep their protocol state and follow the
// swap-remove relabels, and only added nodes are initialised.
//
// # Batched execution
//
// Run and RunBatch execute slots in micro-batches of Config.Batch slots,
// each one call of the slot loop: on the parallel driver a whole
// micro-batch runs inside one fused workpool session, so the helpers are
// woken once per batch (instead of once per slot) and the phase barrier
// advances through 3·b phases before the helpers park again. The session
// closes on every exit path, including a panic out of a node or observer.
// Batching changes wall clock only, never the
// execution: observers, recorders, the fault hook's serial sections, stat
// counters and the stop() poll all fire once per slot, in exact slot
// order, at the same pipeline points as a slot-at-a-time Step loop — a
// batch size of 1 is bit-identical to calling Step in a loop, and so is
// every other batch size (TestRunBatchBitIdentity pins it across drivers,
// worker counts, fault plans and churn epochs).
//
// Because observers run inside the slot loop (on the parallel driver,
// inside its open session), they must not re-enter the engine: Step, Run
// and RunBatch panic when called from an observer, and ApplyEpoch and
// Reset — state mutations that require a batch flush — return an error
// instead. Between Step/Run/RunBatch calls the batch is always flushed, so
// the usual call sites (applying a
// churn epoch between Run legs, resetting for the next trial) need no
// changes at any batch size.
package sim

import (
	"fmt"
	"runtime"
	"sync"

	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
	"sinrmac/internal/workpool"
)

// Node is a per-node protocol automaton.
//
// Implementations must confine their state to the single node: the engine
// may invoke different nodes' methods concurrently (never the same node's),
// so sharing mutable state between Node instances is a data race.
type Node interface {
	// Init is called exactly once before the first slot with the node's id
	// and a private random source.
	Init(id int, src *rng.Source)
	// Tick is called once per slot with the node's pooled frame. To
	// transmit, fill f's fields and return true; to listen, return false
	// (the frame's contents are then ignored). The frame is reused across
	// slots and its fields are not cleared between them.
	Tick(slot int64, f *Frame) bool
	// Receive is called after Tick in the same slot if the node decoded a
	// frame. A node that transmitted in this slot never receives
	// (half-duplex). The frame and its payload are valid only for the
	// duration of the call; retain by copying.
	Receive(slot int64, f *Frame)
}

// NodeInitError is implemented by nodes whose Init can fail — typically
// because constructing the node's protocol automaton from its configuration
// fails. Init itself has no error return (it is called on the engine's hot
// construction path for every node), so such nodes record the failure and
// report it here; NewEngine, Reset and ApplyEpoch consult the interface
// right after calling Init and surface the wrapped error to the caller
// instead of letting library code panic.
type NodeInitError interface {
	// InitError returns the error the last Init recorded, or nil.
	InitError() error
}

// initErrorOf returns the node's recorded Init failure, if any.
func initErrorOf(n Node) error {
	if r, ok := n.(NodeInitError); ok {
		return r.InitError()
	}
	return nil
}

// Observer is notified after every simulated slot. Observers are used by
// experiments and the spec checker to collect traces without perturbing the
// protocols.
type Observer interface {
	// OnSlot is called once per slot with the transmitting node ids and the
	// per-node reception outcome (indexed by node id, Sender == -1 when
	// nothing was decoded). Both slices are only valid for the duration of
	// the call: fast evaluators reuse the receptions slice as scratch for
	// the next slot, and the engine reuses the transmitter slice. Observers
	// that retain either must copy.
	OnSlot(slot int64, transmitters []int, receptions []sinr.Reception)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(slot int64, transmitters []int, receptions []sinr.Reception)

// OnSlot implements Observer.
func (f ObserverFunc) OnSlot(slot int64, transmitters []int, receptions []sinr.Reception) {
	f(slot, transmitters, receptions)
}

// Config controls engine construction.
type Config struct {
	// Seed seeds the per-node random sources. Identical seeds and nodes
	// reproduce identical executions.
	Seed uint64
	// Parallel selects the worker-pool driver whenever the resolved worker
	// count (see Workers) exceeds 1: the tick, evaluation and receive
	// phases of each slot then run inside one fused workpool session, split
	// across every worker. With one resolved worker — Workers: 1, or
	// GOMAXPROCS = 1 — Parallel runs the sequential loop. The execution is
	// identical to the sequential driver's; only wall-clock time differs.
	Parallel bool
	// Deprecated: has no effect; Parallel alone selects the driver.
	PinDriver bool
	// Workers bounds the number of pool workers used by the parallel
	// driver and by a parallel channel evaluator. Zero means GOMAXPROCS.
	// The count is resolved once at construction (and Reset), not per
	// slot.
	Workers int
	// Evaluator selects the SINR slot evaluator. Nil means the channel
	// itself (the naive reference path); pass sinr.NewFastChannel(channel)
	// to select the arena-backed parallel engine. The evaluator must be
	// built over the same deployment as the channel. If it implements
	// sinr.ParallelEvaluator, the engine wires its worker count into it,
	// and if it exposes a WorkerPool the engine runs its own parallel
	// phases on the same pool, so one set of parked goroutines serves the
	// whole slot pipeline.
	//
	// Fast evaluators reuse their Reception slice across slots, so observers
	// registered on an engine with a non-nil Evaluator must copy the slice
	// if they retain it beyond the OnSlot call.
	Evaluator sinr.ChannelEvaluator
	// Faults installs a fault-injection hook (see FaultHook and
	// internal/fault): crash schedules, adversarial jammers, frame
	// drop/corruption and panic-to-crash conversion. Nil (the default)
	// leaves the slot pipeline untouched; a hook whose plan injects nothing
	// produces an execution bit-identical to running without one.
	Faults FaultHook
	// Batch is the micro-batch size used by Run and RunBatch: up to this
	// many consecutive slots execute inside one fused workpool session, so
	// the pool's helpers are woken once per batch instead of once per slot.
	// Zero selects DefaultBatchSlots; one runs slot-at-a-time (exactly the
	// Step loop). Batching never changes the execution — observers, fault
	// hooks, stat counters and stop() polls fire per slot, in slot order,
	// at the same pipeline points regardless of batch size — so the knob
	// trades nothing but wall clock.
	Batch int
}

// DefaultBatchSlots is the micro-batch size Run and RunBatch use when
// Config.Batch is zero. Large enough to amortise the per-batch session
// wake/park down to noise, small enough that a stop condition, SIGINT poll
// or churn boundary is never more than a few dozen slots away.
const DefaultBatchSlots = 64

// Engine drives a set of node automata over an SINR channel.
type Engine struct {
	channel   *sinr.Channel
	evaluator sinr.ChannelEvaluator
	nodes     []Node
	observers []Observer
	cfg       Config
	workers   int // resolved worker count, cached at construction/Reset

	slot   int64
	stats  Stats
	epochs int // churn epochs applied, salts the added-node rng labels
	// nextID is the next never-used protocol identity. Survivors of a churn
	// epoch keep the id they were initialised with even after a swap-remove
	// relabel moves them to another slot, so nodes added later must draw
	// fresh identities — reusing a freed slot index would collide with a
	// survivor's id and break identity-based protocol logic (origin
	// deduplication, MIS tie-breaking).
	nextID int

	// frames is the per-node frame pool: frames[i] is handed to node i on
	// every Tick and delivered to its receivers on decode. Allocated once.
	frames []Frame
	// sent[i] records whether node i transmits this slot (parallel tick
	// phase); the sequential phase appends to txScratch directly.
	sent      []bool
	txScratch []int
	rxCounts  []int64 // scratch: per-worker reception subtotals

	// pool runs the parallel tick/receive phases; shared with the
	// evaluator when it exposes one. tickTask/recvTask are the pool task
	// headers, allocated once so submitting a phase allocates nothing.
	pool     *workpool.Pool
	tickTask phaseTask
	recvTask phaseTask
	tickSlot int64
	rxSlot   int64
	rxRec    []sinr.Reception

	// Fault-injection state (used only when cfg.Faults is non-nil). inert
	// is the hook's per-slot bitmap (nil when no node is inert), realTx the
	// count of real transmitters before jammer injection, and pendingPanics
	// the recovered node panics awaiting serial hand-off to the hook.
	faults        FaultHook
	inert         []bool
	realTx        int
	panicMu       sync.Mutex
	pendingPanics []panicRecord

	// batch is the resolved micro-batch size (Config.Batch, defaulted);
	// inBatch guards against engine re-entry from observers while the slot
	// loop (and on the parallel driver its workpool session) is open.
	batch   int
	inBatch bool
}

// phaseTask adapts one engine phase to workpool.Task. The fn indirection
// (a method expression, assigned once) lets both phases share the type
// without per-slot closures.
type phaseTask struct {
	e  *Engine
	fn func(e *Engine, lo, hi, worker int)
}

// RunChunk implements workpool.Task.
func (t *phaseTask) RunChunk(lo, hi, worker int) { t.fn(t.e, lo, hi, worker) }

// Stats accumulates aggregate counters over an execution.
type Stats struct {
	// Slots is the number of slots simulated so far.
	Slots int64
	// Transmissions counts frames put on the channel.
	Transmissions int64
	// Receptions counts successful decodes.
	Receptions int64
}

// NewEngine returns an engine over the given channel and nodes. The number
// of nodes must match the channel's deployment size.
func NewEngine(channel *sinr.Channel, nodes []Node, cfg Config) (*Engine, error) {
	if channel == nil {
		return nil, fmt.Errorf("sim: nil channel")
	}
	if len(nodes) != channel.NumNodes() {
		return nil, fmt.Errorf("sim: %d nodes for a %d-node deployment", len(nodes), channel.NumNodes())
	}
	evaluator := cfg.Evaluator
	if evaluator == nil {
		evaluator = channel
	}
	if evaluator.NumNodes() != channel.NumNodes() {
		return nil, fmt.Errorf("sim: evaluator over %d nodes for a %d-node deployment",
			evaluator.NumNodes(), channel.NumNodes())
	}
	if wrapped, ok := evaluator.(interface{ Channel() *sinr.Channel }); ok && wrapped.Channel() != channel {
		return nil, fmt.Errorf("sim: evaluator wraps a different channel than the engine's")
	}
	e := &Engine{
		channel:   channel,
		evaluator: evaluator,
		// The engine owns its node table: ApplyEpoch relabels and truncates
		// it in place, which must never reach through to a slice the caller
		// retains for its own bookkeeping.
		nodes:  append([]Node(nil), nodes...),
		cfg:    cfg,
		frames: make([]Frame, len(nodes)),
		sent:   make([]bool, len(nodes)),
	}
	e.tickTask = phaseTask{e: e, fn: (*Engine).tickChunk}
	e.recvTask = phaseTask{e: e, fn: (*Engine).recvChunk}
	e.faults = cfg.Faults
	if e.faults != nil {
		e.tickTask.fn = (*Engine).tickChunkFaults
		e.recvTask.fn = (*Engine).recvChunkFaults
	}
	e.workers = e.resolveWorkers()
	e.rxCounts = make([]int64, e.workers)
	e.batch = resolveBatch(cfg.Batch)
	for i := range e.frames {
		e.frames[i].From = i
	}
	if pe, ok := evaluator.(sinr.ParallelEvaluator); ok {
		pe.SetWorkers(e.workers)
	}
	// Run the engine's own parallel phases on the evaluator's persistent
	// pool when it has one; otherwise own a pool (only the parallel driver
	// ever uses it).
	if ph, ok := evaluator.(interface{ WorkerPool() *workpool.Pool }); ok {
		e.pool = ph.WorkerPool()
	} else if cfg.Parallel {
		e.pool = workpool.New()
	}
	e.nextID = len(nodes)
	master := rng.New(cfg.Seed)
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("sim: node %d is nil", i)
		}
		n.Init(i, master.SplitLabeled(uint64(i)))
		if err := initErrorOf(n); err != nil {
			return nil, fmt.Errorf("sim: node %d failed to initialise: %w", i, err)
		}
	}
	return e, nil
}

// Reset rewinds the engine to slot zero over a fresh set of node automata,
// reusing the engine's channel, evaluator, frame pool and scratch storage
// instead of reallocating them. The node count must match the deployment.
// Observers are dropped; callers re-register the ones the new execution
// needs.
//
// Reset re-seeds the per-node random sources exactly as NewEngine does, so
// an engine that is Reset with the same nodes and seed replays the identical
// execution a fresh engine would produce — this is what lets the experiment
// scheduler run many trials on one engine without repaying its fixed costs.
// Mutable per-execution state inside the evaluator (scratch arenas, lazily
// built cell indices) is keyed only to the immutable deployment, so it
// carries over safely.
func (e *Engine) Reset(nodes []Node, seed uint64) error {
	if e.inBatch {
		return fmt.Errorf("sim: Reset called from inside a running batch; return from Run/RunBatch first")
	}
	if len(nodes) != len(e.nodes) {
		return fmt.Errorf("sim: Reset with %d nodes on a %d-node engine", len(nodes), len(e.nodes))
	}
	for i, n := range nodes {
		if n == nil {
			return fmt.Errorf("sim: node %d is nil", i)
		}
	}
	e.nodes = append(e.nodes[:0], nodes...)
	e.observers = e.observers[:0]
	e.slot = 0
	e.stats = Stats{}
	e.txScratch = e.txScratch[:0]
	for i := range e.frames {
		e.frames[i] = Frame{From: i}
		e.sent[i] = false
	}
	e.workers = e.resolveWorkers()
	if len(e.rxCounts) < e.workers {
		e.rxCounts = make([]int64, e.workers)
	}
	e.cfg.Seed = seed
	e.epochs = 0
	e.nextID = len(nodes)
	if e.faults != nil {
		e.faults.Reset()
		e.inert = nil
		e.pendingPanics = e.pendingPanics[:0]
	}
	master := rng.New(seed)
	for i, n := range nodes {
		n.Init(i, master.SplitLabeled(uint64(i)))
		if err := initErrorOf(n); err != nil {
			return fmt.Errorf("sim: node %d failed to initialise: %w", i, err)
		}
	}
	return nil
}

// churnInitLabel salts the rng label path of nodes added by churn epochs,
// so an added node's stream never collides with an original node's
// (which are derived from the bare id label).
const churnInitLabel uint64 = 0xc402c4

// ApplyEpoch applies a committed churn epoch (topology.Deployment.
// CommitEpoch) to a running simulation, between slots: the evaluator (and
// through it the channel) patches its state via sinr's EpochApplier
// capability, surviving node automata follow their node through the
// swap-remove relabels, removed automata are dropped, and only the added
// nodes are initialised — every existing automaton keeps its protocol state
// across the epoch, exactly as a deployed node would keep its state while
// neighbours churn around it.
//
// newNode supplies the automaton for each added slot id; it may be nil when
// the epoch adds none. An added automaton is initialised with a FRESH
// protocol identity — the next id never used in this execution, not its
// slot index — because a surviving automaton keeps the id it was
// initialised with even after a relabel moves it to another slot, and
// reusing a freed id would let two live automata share an identity (which
// breaks origin deduplication and MIS tie-breaking at the protocol layer).
// Slot-indexed engine artifacts (receptions, Frame.From, Node(i)) keep
// using slot ids as before. Added nodes draw their rng streams from
// (Seed, churn, epoch#, identity) labels, so executions remain
// reproducible. ApplyEpoch must not be called concurrently with Step.
func (e *Engine) ApplyEpoch(delta *sinr.EpochDelta, newNode func(id int) Node) error {
	if e.inBatch {
		return fmt.Errorf("sim: ApplyEpoch called from inside a running batch; return from Run/RunBatch first")
	}
	ap, ok := e.evaluator.(sinr.EpochApplier)
	if !ok {
		return fmt.Errorf("sim: evaluator %T cannot apply churn epochs", e.evaluator)
	}
	if err := delta.Validate(); err != nil {
		return err
	}
	if delta.OldN != len(e.nodes) {
		return fmt.Errorf("sim: epoch delta for %d nodes applied to a %d-node engine", delta.OldN, len(e.nodes))
	}
	if len(delta.Added) > 0 && newNode == nil {
		return fmt.Errorf("sim: epoch adds %d nodes but no node factory was supplied", len(delta.Added))
	}
	// Added automata are built and initialised BEFORE anything is mutated:
	// every remaining failure (nil factory result, out-of-order slot,
	// recorded Init error, evaluator rejection — the evaluators validate
	// before touching their state) then leaves the engine fully usable at
	// its pre-epoch size, so callers may treat a failed apply as
	// recoverable.
	firstAdd := delta.OldN - delta.Removed
	added := make([]Node, 0, len(delta.Added))
	master := rng.New(e.cfg.Seed)
	epoch := uint64(e.epochs + 1)
	for i, id := range delta.Added {
		if id != firstAdd+i {
			return fmt.Errorf("sim: epoch adds node %d out of order (expected slot %d)", id, firstAdd+i)
		}
		n := newNode(id)
		if n == nil {
			return fmt.Errorf("sim: node factory returned nil for added node %d", id)
		}
		identity := e.nextID + i
		n.Init(identity, master.SplitLabels(churnInitLabel, epoch, uint64(identity)))
		if err := initErrorOf(n); err != nil {
			return fmt.Errorf("sim: added node %d failed to initialise: %w", id, err)
		}
		added = append(added, n)
	}
	if err := ap.ApplyEpoch(delta); err != nil {
		return err
	}
	e.epochs++
	e.nextID += len(added)
	// Survivors follow their node: the sequential relabel chain mirrors the
	// swap-removes CommitEpoch performed on the positions.
	for _, rl := range delta.Relabels {
		e.nodes[rl.To] = e.nodes[rl.From]
	}
	e.nodes = append(e.nodes[:firstAdd], added...)
	if len(e.nodes) != delta.NewN {
		return fmt.Errorf("sim: epoch left %d nodes, expected %d", len(e.nodes), delta.NewN)
	}
	// Resize the per-node scratch. Frames are per-slot scratch, so resetting
	// them wholesale is safe between slots.
	if delta.NewN > cap(e.frames) {
		e.frames = make([]Frame, delta.NewN)
	} else {
		e.frames = e.frames[:delta.NewN]
	}
	for i := range e.frames {
		e.frames[i] = Frame{From: i}
	}
	if delta.NewN > cap(e.sent) {
		e.sent = make([]bool, delta.NewN)
	} else {
		e.sent = e.sent[:delta.NewN]
	}
	for i := range e.sent {
		e.sent[i] = false
	}
	e.txScratch = e.txScratch[:0]
	e.workers = e.resolveWorkers()
	if len(e.rxCounts) < e.workers {
		e.rxCounts = make([]int64, e.workers)
	}
	if pe, ok := e.evaluator.(sinr.ParallelEvaluator); ok {
		pe.SetWorkers(e.workers)
	}
	// Per-node fault state (crash schedules, inert bits) follows the same
	// relabels the node table just applied.
	if e.faults != nil {
		e.faults.EpochApplied(delta)
		e.inert = nil
	}
	return nil
}

// AddObserver registers an observer invoked after every slot, in
// registration order.
func (e *Engine) AddObserver(o Observer) {
	e.observers = append(e.observers, o)
}

// Slot returns the number of the next slot to be simulated (equivalently,
// the number of slots already simulated).
func (e *Engine) Slot() int64 { return e.slot }

// Stats returns the aggregate counters accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// Channel returns the engine's SINR channel.
func (e *Engine) Channel() *sinr.Channel { return e.channel }

// Evaluator returns the slot evaluator the engine runs on: the channel
// itself unless Config.Evaluator selected another path.
func (e *Engine) Evaluator() sinr.ChannelEvaluator { return e.evaluator }

// Node returns the automaton with the given id. It is intended for tests
// and for layering higher-level protocols on top of MAC automata.
func (e *Engine) Node(id int) Node { return e.nodes[id] }

// Step simulates exactly one slot: it is the slot loop run for one slot, so
// on the parallel driver every Step opens and closes one workpool session.
// Step must not be called from an observer (the slot loop is still open);
// doing so panics.
func (e *Engine) Step() { e.runSlots(1, nil) }

// resolveBatch derives the effective micro-batch size from the
// configuration.
func resolveBatch(b int) int {
	if b <= 0 {
		return DefaultBatchSlots
	}
	return b
}

// runSlots is the engine's one slot loop. It simulates up to take slots,
// polling stop (when non-nil) before each, and reports how many ran and
// whether stop ended the loop. Every slot runs tick → collect → (hook:
// perturb) → evaluate → (hook: drain panics, filter) → receive → (hook:
// drain panics) → finish. On the parallel driver the tick and receive
// phases, and a parallel evaluator's chunks, run on one workpool session
// that spans the whole call. Everything serial — transmitter collection,
// the fault hook, stat counters, observers, the stop poll — runs on the
// calling goroutine between the phases, in slot order, so the execution is
// the same on either driver and at any take. The session and the re-entry
// guard are released on every exit path, a panic included.
func (e *Engine) runSlots(take int64, stop func() bool) (ran int64, stopped bool) {
	if e.inBatch {
		panic("sim: Step/Run/RunBatch called from inside a running batch")
	}
	parallel := e.cfg.Parallel && e.workers > 1
	e.inBatch = true
	if parallel {
		e.pool.Begin(e.workers)
	}
	defer e.endSlots(parallel)
	hook := e.faults
	n := len(e.nodes)
	for ; ran < take; ran++ {
		if stop != nil && stop() {
			return ran, true
		}
		slot := e.slot
		if hook != nil {
			e.inert = hook.SlotStart(slot, n)
		}
		e.txScratch = e.txScratch[:0]
		e.tickSlot = slot
		if parallel {
			e.pool.Run(n, e.workers, &e.tickTask)
			for i, sent := range e.sent {
				if sent {
					e.sent[i] = false
					e.frames[i].From = i
					e.txScratch = append(e.txScratch, i)
				}
			}
		} else {
			for i := 0; i < n; {
				i = e.tickRun(i, n)
			}
		}
		if hook != nil {
			e.realTx = len(e.txScratch)
			e.txScratch = hook.PerturbTransmitters(slot, e.txScratch)
		}
		receptions := e.evaluator.SlotReceptions(e.txScratch)
		if hook != nil {
			e.drainPanics(slot)
			hook.FilterReceptions(slot, receptions)
		}
		e.stats.Receptions += e.receive(slot, receptions, parallel)
		if hook != nil {
			e.drainPanics(slot)
		}
		e.finishSlot(slot, receptions)
	}
	return ran, false
}

// endSlots releases what runSlots opened: the re-entry guard and, on the
// parallel driver, the workpool session. It is deferred, so neither stays
// open when a node or observer panics out of the loop.
func (e *Engine) endSlots(parallel bool) {
	e.inBatch = false
	if parallel {
		e.pool.End()
	}
}

// tickRun is the sequential tick phase over nodes [lo, hi). Transmitters
// are appended to txScratch directly, in node order: a sent-flag sweep
// would add an O(n) pass that the engine_step_faults benchmark gate
// polices. Under a fault hook inert nodes do not tick, and a panicking Tick
// is recovered — the node is never appended, the panic is queued for the
// hook, and the index to resume from is returned. Without a hook a node
// panic propagates.
func (e *Engine) tickRun(lo, hi int) (next int) {
	slot, inert := e.tickSlot, e.inert
	i := lo
	if e.faults != nil {
		defer func() {
			if r := recover(); r != nil {
				e.recordPanic(i, "tick", r)
				next = i + 1
			}
		}()
	}
	if inert != nil {
		for ; i < hi; i++ {
			if !inert[i] && e.nodes[i].Tick(slot, &e.frames[i]) {
				e.frames[i].From = i
				e.txScratch = append(e.txScratch, i)
			}
		}
		return hi
	}
	for ; i < hi; i++ {
		if e.nodes[i].Tick(slot, &e.frames[i]) {
			e.frames[i].From = i
			e.txScratch = append(e.txScratch, i)
		}
	}
	return hi
}

// finishSlot applies the per-slot bookkeeping shared by both drivers. Under
// a fault hook only the real (pre-jammer) transmitters count as
// transmissions; observers still see the full perturbed transmit set.
func (e *Engine) finishSlot(slot int64, receptions []sinr.Reception) {
	tx := len(e.txScratch)
	if e.faults != nil {
		tx = e.realTx
	}
	e.stats.Transmissions += int64(tx)
	e.stats.Slots++
	for _, o := range e.observers {
		o.OnSlot(slot, e.txScratch, receptions)
	}
	e.slot++
}

// resolveWorkers derives the effective worker count from the configuration
// once; Step never consults GOMAXPROCS.
func (e *Engine) resolveWorkers() int {
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(e.nodes) {
		w = len(e.nodes)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// tickChunk is the parallel tick phase's loop body: nodes [lo, hi) record
// their transmission decision in the sent flags.
//
//sinrlint:hotpath
func (e *Engine) tickChunk(lo, hi, _ int) {
	slot := e.tickSlot
	for i := lo; i < hi; i++ {
		e.sent[i] = e.nodes[i].Tick(slot, &e.frames[i])
	}
}

// recvChunk is the receive phase's loop body: receivers [lo, hi) take their
// deliveries, counting them into the worker's private subtotal.
//
//sinrlint:hotpath
func (e *Engine) recvChunk(lo, hi, worker int) {
	slot, rec := e.rxSlot, e.rxRec
	count := int64(0)
	for i := lo; i < hi; i++ {
		if s := rec[i].Sender; s >= 0 {
			e.nodes[i].Receive(slot, &e.frames[s])
			count++
		}
	}
	e.rxCounts[worker] = count
}

// receive delivers the slot's decoded frames — on the worker pool under the
// parallel driver, inline as one chunk otherwise — and returns the number
// of deliveries. Each chunk counts into its worker's private subtotal, so
// the receptions slice is scanned exactly once and the sum is deterministic
// (integer addition over disjoint chunks).
func (e *Engine) receive(slot int64, receptions []sinr.Reception, parallel bool) int64 {
	clear(e.rxCounts)
	e.rxSlot, e.rxRec = slot, receptions
	if parallel {
		e.pool.Run(len(e.nodes), e.workers, &e.recvTask)
	} else {
		e.recvTask.RunChunk(0, len(e.nodes), 0)
	}
	e.rxRec = nil
	total := int64(0)
	for _, c := range e.rxCounts {
		total += c
	}
	return total
}

// Run simulates slots until stop returns true or maxSlots slots have been
// simulated, whichever comes first. It returns the number of slots
// simulated by this call and whether the stop condition was reached. stop
// is evaluated before each slot (so a condition that already holds
// simulates nothing) and may be nil to run exactly maxSlots slots.
//
// Run executes in micro-batches of Config.Batch slots (see RunBatch): on
// the parallel driver each micro-batch shares one fused workpool session.
// The execution — including exactly when stop is polled — is identical to
// calling Step in a loop at any batch size.
func (e *Engine) Run(maxSlots int64, stop func() bool) (int64, bool) {
	var done int64
	for done < maxSlots {
		ran, stopped := e.runSlots(min(maxSlots-done, int64(e.batch)), stop)
		done += ran
		if stopped {
			return done, true
		}
	}
	return done, stop != nil && stop()
}

// RunBatch simulates up to b slots as one micro-batch: on the parallel
// driver the batch runs inside a single fused workpool session (helpers
// woken once, the phase barrier advancing through 3·b phases). Observers,
// fault hooks and stat counters fire per slot in exact slot order, so the
// execution is bit-identical to b calls of Step; only wall clock differs.
// It returns the number of slots simulated (b, unless b <= 0). Calls
// between RunBatch/Run invocations — ApplyEpoch, Reset — always see a
// flushed batch.
func (e *Engine) RunBatch(b int) int64 {
	if b <= 0 {
		return 0
	}
	ran, _ := e.runSlots(int64(b), nil)
	return ran
}
