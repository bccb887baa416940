// Package sim provides the synchronous, slotted simulation engine that
// drives protocol automata over the SINR channel.
//
// Time proceeds in discrete slots. In every slot the engine
//
//  1. asks every node automaton whether it transmits a frame (Tick),
//  2. evaluates the SINR reception predicate at every listening node
//     through the configured sinr.ChannelEvaluator (the naive reference
//     scan by default, sinr.FastChannel via Config.Evaluator), and
//  3. delivers the decoded frame, if any, to each receiver (Receive).
//
// Node automata never see positions, the set of transmitters, or other
// nodes' state: all coordination happens through transmitted frames, as in
// the paper's model.
//
// Step and Run go through one serial slot loop: the tick and receive phases
// run on the calling goroutine in node order, and the engine reads no wall
// clock. Only a parallel evaluator splits work across goroutines: its
// receiver scan runs on the evaluator's own worker pool (internal/workpool),
// sized by Config.Workers, and is bit-identical at any worker count. The
// engine oracle (oracle_test.go) holds every evaluator regime, worker
// count, fault plan, epoch sequence and Step/Run use bit-identical to the
// naive evaluator under a Step loop.
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
// Nodes may move mid-execution: Engine.ApplyEpoch applies a committed
// topology epoch, a batch of moves over the fixed node set, between slots.
// The evaluator patches its state, and every automaton keeps its id and
// its protocol state.
//
// # Re-entry
//
// Observers, recorders, the fault hook, stat counters and the stop() poll
// all fire once per slot, in exact slot order, so a Run of b slots is
// bit-identical to b calls of Step. Because observers run inside the slot
// loop, they must not re-enter the engine: Step and Run panic when called
// from an observer, and ApplyEpoch and Reset — state mutations that must
// land between Step/Run calls — return an error instead. The guard is
// released on every exit path, including a panic out of a node or
// observer.
package sim

import (
	"fmt"
	"runtime"

	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

// Node is a per-node protocol automaton.
//
// Implementations must confine their state to the single node: in the
// paper's model nodes coordinate only through transmitted frames, and the
// engine's node order is not part of any protocol's contract.
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
// report it here; NewEngine and Reset consult the interface right after
// calling Init and surface the wrapped error to the caller instead of
// letting library code panic.
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
	// Deprecated: has no effect; the engine has one serial slot loop, and
	// only a parallel evaluator uses more than one worker (see Workers).
	Parallel bool
	// Deprecated: has no effect.
	PinDriver bool
	// Workers bounds the number of pool workers a parallel channel
	// evaluator (sinr.ParallelEvaluator) splits its receiver scan across.
	// Zero means GOMAXPROCS. The count is resolved at construction, never
	// per slot.
	Workers int
	// Evaluator selects the SINR slot evaluator. Nil means the channel
	// itself (the naive reference path); pass sinr.NewFastChannel(channel)
	// to select the arena-backed parallel engine. The evaluator must be
	// built over the same deployment as the channel. If it implements
	// sinr.ParallelEvaluator, the engine wires its worker count into it.
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
}

// Engine drives a set of node automata over an SINR channel.
type Engine struct {
	channel   *sinr.Channel
	evaluator sinr.ChannelEvaluator
	nodes     []Node
	observers []Observer
	cfg       Config

	slot  int64
	stats Stats

	// frames is the per-node frame pool: frames[i] is handed to node i on
	// every Tick and delivered to its receivers on decode. Allocated once.
	frames    []Frame
	txScratch []int

	// Fault-injection state (used only when cfg.Faults is non-nil). inert
	// is the hook's per-slot bitmap (nil when no node is inert), realTx the
	// count of real transmitters before jammer injection, and pendingPanics
	// the recovered node panics awaiting hand-off to the hook.
	faults        FaultHook
	inert         []bool
	realTx        int
	pendingPanics []panicRecord

	// running guards against engine re-entry from observers while the slot
	// loop is open.
	running bool
}

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
	if sized, ok := cfg.Faults.(interface{ NumNodes() int }); ok && sized.NumNodes() != channel.NumNodes() {
		return nil, fmt.Errorf("sim: fault hook over %d nodes for a %d-node deployment",
			sized.NumNodes(), channel.NumNodes())
	}
	e := &Engine{
		channel:   channel,
		evaluator: evaluator,
		// The engine owns its node table: Reset overwrites it in place,
		// which must never reach through to a slice the caller retains for
		// its own bookkeeping.
		nodes:  append([]Node(nil), nodes...),
		cfg:    cfg,
		frames: make([]Frame, len(nodes)),
		faults: cfg.Faults,
	}
	for i := range e.frames {
		e.frames[i].From = i
	}
	e.setEvaluatorWorkers()
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
// Mutable per-execution state inside the evaluator (scratch arenas, the
// lattice's cell index) is keyed only to the immutable deployment, so it
// carries over safely.
func (e *Engine) Reset(nodes []Node, seed uint64) error {
	if e.running {
		return fmt.Errorf("sim: Reset called from inside the slot loop; return from Step/Run first")
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
	}
	e.cfg.Seed = seed
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

// ApplyEpoch applies a committed mobility epoch (topology.Deployment.
// CommitEpoch) to a running simulation, between slots: the evaluator (and
// through it the channel) moves the epoch's nodes via sinr's EpochApplier
// capability. The node set is fixed, so every automaton keeps its id and
// its protocol state across the epoch, exactly as a deployed node keeps its
// state while it and its neighbours move. A rejected delta leaves the
// engine unchanged, and the simulation can continue. ApplyEpoch must not be
// called concurrently with Step.
//
// The newNode parameter is Deprecated and ignored: an epoch adds no nodes.
// It remains only so that existing callers keep compiling.
func (e *Engine) ApplyEpoch(delta *sinr.EpochDelta, newNode func(id int) Node) error {
	if e.running {
		return fmt.Errorf("sim: ApplyEpoch called from inside the slot loop; return from Step/Run first")
	}
	ap, ok := e.evaluator.(sinr.EpochApplier)
	if !ok {
		return fmt.Errorf("sim: evaluator %T cannot apply churn epochs", e.evaluator)
	}
	return ap.ApplyEpoch(delta)
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

// Step simulates exactly one slot. Step must not be called from an
// observer (the slot loop is still open); doing so panics.
func (e *Engine) Step() { e.runSlots(1, nil) }

// runSlots is the engine's one slot loop. It simulates up to take slots,
// polling stop (when non-nil) before each, and reports how many ran and
// whether stop ended the loop. Every slot runs tick → (hook: perturb) →
// evaluate → (hook: drain panics, filter) → receive → (hook: drain panics)
// → finish, all on the calling goroutine and in slot order. The re-entry
// guard is released on every exit path, a panic included.
func (e *Engine) runSlots(take int64, stop func() bool) (ran int64, stopped bool) {
	if e.running {
		panic("sim: Step/Run called from inside the slot loop")
	}
	e.running = true
	defer func() { e.running = false }()
	hook := e.faults
	for ; ran < take; ran++ {
		if stop != nil && stop() {
			return ran, true
		}
		slot := e.slot
		if hook != nil {
			e.inert = hook.SlotStart(slot, len(e.nodes))
		}
		e.txScratch = e.txScratch[:0]
		for i := 0; i < len(e.nodes); {
			i = e.tickRun(slot, i)
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
		for i := 0; i < len(e.nodes); {
			i = e.receiveRun(slot, receptions, i)
		}
		if hook != nil {
			e.drainPanics(slot)
		}
		e.finishSlot(slot, receptions)
	}
	return ran, false
}

// tickRun is the tick phase from node lo on. Transmitters are appended to
// txScratch in node order. Under a fault hook inert nodes do not tick, and
// a panicking Tick is recovered — the node is never appended, the panic is
// queued for the hook, and the index to resume from is returned. Without a
// hook a node panic propagates.
//
//sinrlint:hotpath
func (e *Engine) tickRun(slot int64, lo int) (next int) {
	inert := e.inert
	i := lo
	if e.faults != nil {
		//sinrlint:allow hotalloc a directly deferred closure is stack-allocated
		defer func() {
			if r := recover(); r != nil {
				e.recordPanic(i, "tick", r)
				next = i + 1
			}
		}()
	}
	if inert != nil {
		for ; i < len(e.nodes); i++ {
			if !inert[i] && e.nodes[i].Tick(slot, &e.frames[i]) {
				e.frames[i].From = i
				e.txScratch = append(e.txScratch, i)
			}
		}
		return i
	}
	for ; i < len(e.nodes); i++ {
		if e.nodes[i].Tick(slot, &e.frames[i]) {
			e.frames[i].From = i
			e.txScratch = append(e.txScratch, i)
		}
	}
	return i
}

// receiveRun is the receive phase from receiver lo on: it delivers the
// slot's decoded frames and counts them. Under a fault hook every delivery
// is routed through DeliverFrame (inert receivers were already scrubbed by
// FilterReceptions), and a panicking Receive is recovered like a panicking
// Tick.
//
//sinrlint:hotpath
func (e *Engine) receiveRun(slot int64, receptions []sinr.Reception, lo int) (next int) {
	hook := e.faults
	i := lo
	if hook != nil {
		//sinrlint:allow hotalloc a directly deferred closure is stack-allocated
		defer func() {
			if r := recover(); r != nil {
				e.recordPanic(i, "receive", r)
				next = i + 1
			}
		}()
	}
	for ; i < len(e.nodes); i++ {
		s := receptions[i].Sender
		if s < 0 {
			continue
		}
		f := &e.frames[s]
		if hook != nil {
			if f = hook.DeliverFrame(slot, i, f); f == nil {
				continue
			}
		}
		e.nodes[i].Receive(slot, f)
		e.stats.Receptions++
	}
	return i
}

// finishSlot applies the per-slot bookkeeping. Under a fault hook only the
// real (pre-jammer) transmitters count as transmissions; observers still
// see the full perturbed transmit set.
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

// setEvaluatorWorkers wires the resolved worker count into a parallel
// evaluator, once at construction; Step never consults GOMAXPROCS.
func (e *Engine) setEvaluatorWorkers() {
	pe, ok := e.evaluator.(sinr.ParallelEvaluator)
	if !ok {
		return
	}
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	pe.SetWorkers(max(1, min(w, len(e.nodes))))
}

// Run simulates slots until stop returns true or maxSlots slots have been
// simulated, whichever comes first. It returns the number of slots
// simulated by this call and whether the stop condition was reached. stop
// is evaluated before each slot (so a condition that already holds
// simulates nothing) and may be nil to run exactly maxSlots slots. The
// execution, including exactly when stop is polled, is identical to calling
// Step in a loop.
func (e *Engine) Run(maxSlots int64, stop func() bool) (int64, bool) {
	ran, stopped := e.runSlots(maxSlots, stop)
	return ran, stopped || stop != nil && stop()
}
