// Package fault implements the deterministic fault-injection layer for the
// slotted SINR simulator: crash-stop and crash-recover schedules,
// adversarial per-slot jammers injected into the transmit set, frame
// drop/corruption, and Byzantine node wrappers that spam or equivocate.
//
// A Plan declares fault rates; an Injector compiled from the plan
// implements sim.FaultHook and is installed on an engine via
// sim.Config.Faults. Every stochastic fault decision is drawn from rng
// streams labelled under the plan seed (fault/plan/<kind>/<node> for
// per-node schedules, a serial per-slot stream for jamming and delivery
// faults), never from execution order, so a faulty execution is
// bit-identical at any evaluator worker count — and a plan
// whose rates are all zero consumes no randomness at all, leaving the
// execution bit-identical to running without a hook.
//
// Crash semantics: a crashed node goes inert — it neither ticks nor
// receives, and contributes no interference (it never transmits) — while
// every survivor's automaton state is untouched. Crash-recover resumes the
// same automaton with its state intact (a transient/omission fault in the
// literature's taxonomy); there is no re-Init. A panic recovered from a
// node's Tick or Receive is converted into a crash-stop fault for that
// node only (recorded in Stats and Panics) and the run continues.
package fault

import (
	"fmt"

	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
)

// Labelled rng stream roots under the plan seed. Per-node streams append
// the node id (fault/plan/<kind>/<node>); the jam and deliver streams are
// advanced serially in slot order by the engine's serial sections.
var (
	crashLabel   = rng.Label("fault/plan/crash")
	jamLabel     = rng.Label("fault/plan/jam")
	deliverLabel = rng.Label("fault/plan/deliver")
	byzLabel     = rng.Label("fault/plan/byz")
)

// NoiseFrameKind marks the garbage frames Byzantine spammers transmit.
// Protocol automata route unknown kinds to their default arm, so noise is
// decoded interference, never a protocol message.
var NoiseFrameKind = sim.RegisterFrameKind("fault.noise")

// corruptIDMask is xored into a corrupted frame's message id, making the
// frame look like a plausible-but-unknown protocol message.
const corruptIDMask = 0xfa17fa17fa17fa17

// Defaults applied by NewInjector when the corresponding Plan field is zero
// but the fault kind is active.
const (
	// DefaultCrashWindow is the slot window over which crash slots are
	// drawn when Plan.CrashWindow is zero.
	DefaultCrashWindow = 1 << 10
	// DefaultRecoverDelay bounds the extra down-time drawn for a
	// crash-recover node when Plan.RecoverDelay is zero.
	DefaultRecoverDelay = 1 << 7
	// jamAttempts bounds the candidate draws per injected jammer; a slot so
	// dense that every candidate already transmits simply injects fewer.
	jamAttempts = 8
	// maxPanicRecords caps the retained panic details (counters keep
	// counting past the cap).
	maxPanicRecords = 16
)

// MutateFunc rewrites a Byzantine node's outgoing frame in place
// (equivocation). It runs inside the node's Tick, so it may only touch the
// frame and draw from src (the wrapper's private labelled stream).
type MutateFunc func(slot int64, node int, f *sim.Frame, src *rng.Source)

// Plan declares a deterministic fault schedule. The zero value injects
// nothing. Rates are probabilities in [0, 1].
type Plan struct {
	// Seed roots every fault stream. Independent from the engine seed: the
	// same plan can be replayed against different protocol randomness.
	Seed uint64

	// CrashRate is the per-node probability of one crash during
	// CrashWindow. A crashed node goes inert; with probability RecoverRate
	// it recovers after 1..RecoverDelay further slots with its automaton
	// state intact, otherwise the crash is permanent (crash-stop).
	CrashRate    float64
	CrashWindow  int64
	RecoverRate  float64
	RecoverDelay int64

	// JamRate is the per-slot probability the adversary jams; on a jammed
	// slot JamPower idle nodes are injected into the transmit set as
	// interferers (half-duplex applies: a jamming node receives nothing,
	// and any frame "decoded" from a jammer is scrubbed as noise).
	JamRate  float64
	JamPower int

	// DropRate and CorruptRate are per-delivery probabilities: a decoded
	// frame is silently dropped, or delivered corrupted (mangled message
	// id, payloads nil'd) to that one receiver.
	DropRate    float64
	CorruptRate float64

	// ByzantineFraction selects nodes (per-node Bernoulli draw at wrap
	// time) to wrap in a Byzantine adversary: on idle slots it spams noise
	// frames with probability SpamRate, and on transmitting slots it
	// rewrites the outgoing frame via Mutate with probability MutateRate
	// (default 1 when Mutate is set). The wrapper cannot forge the
	// link-layer sender — the engine overwrites Frame.From after Tick — so
	// equivocation is confined to message contents (Msg, Payload).
	ByzantineFraction float64
	SpamRate          float64
	MutateRate        float64
	Mutate            MutateFunc
}

// Validate checks the plan's rates and bounds.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"CrashRate", p.CrashRate}, {"RecoverRate", p.RecoverRate},
		{"JamRate", p.JamRate}, {"DropRate", p.DropRate},
		{"CorruptRate", p.CorruptRate}, {"ByzantineFraction", p.ByzantineFraction},
		{"SpamRate", p.SpamRate}, {"MutateRate", p.MutateRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("fault: %s = %v outside [0, 1]", r.name, r.v)
		}
	}
	if p.JamPower < 0 {
		return fmt.Errorf("fault: JamPower = %d negative", p.JamPower)
	}
	if p.CrashWindow < 0 || p.RecoverDelay < 0 {
		return fmt.Errorf("fault: negative crash window or recover delay")
	}
	return nil
}

// Stats are the injector's lifetime fault counters.
type Stats struct {
	// Crashed and Recovered count scheduled crash/recover transitions;
	// PanicCrashes counts node panics converted into crash-stop faults.
	Crashed, Recovered, PanicCrashes int
	// JammedSlots counts slots the adversary jammed; JamTransmissions the
	// injected interferers; JamScrubs receptions scrubbed because the
	// decoded sender was a jammer.
	JammedSlots, JamTransmissions, JamScrubs int
	// InertScrubs counts receptions scrubbed because the receiver was
	// crashed; Dropped and Corrupted the per-delivery frame faults.
	InertScrubs, Dropped, Corrupted int
	// ByzantineNodes counts wrapped nodes; SpamFrames and MutatedFrames
	// their injected and equivocated transmissions.
	ByzantineNodes, SpamFrames, MutatedFrames int
}

// PanicRecord is one recovered node panic (detail retained for the first
// maxPanicRecords; see Stats.PanicCrashes for the full count).
type PanicRecord struct {
	Slot  int64
	Node  int
	Phase string // "tick" or "receive"
	Value interface{}
	Stack []byte
}

// nodeState is one node's compiled fault schedule and current status.
type nodeState struct {
	crashSlot   int64 // -1: never crashes
	recoverSlot int64 // -1: crash-stop
	down        bool
	panicked    bool
}

// Injector compiles a Plan into a sim.FaultHook. One injector drives one
// engine; it is not safe for concurrent use beyond the FaultHook contract.
type Injector struct {
	plan Plan
	n    int

	jamSrc     *rng.Source
	deliverSrc *rng.Source

	sched        []nodeState
	hasSchedules bool
	inert        []bool
	inertCount   int

	jammed  []bool // per-node: injected as jammer this slot
	jamList []int
	txMark  []bool // scratch: real transmitters of the slot being perturbed

	corrupt    []bool // per-receiver corruption marks for the current slot
	corruptAny bool
	scratch    []sim.Frame // per-receiver corrupted copies

	byzWrapped []bool
	wrappers   []*byzantineNode

	stats  Stats
	panics []PanicRecord
}

// NewInjector compiles the plan for an n-node deployment.
func NewInjector(plan Plan, n int) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("fault: injector over %d nodes", n)
	}
	if plan.CrashWindow == 0 {
		plan.CrashWindow = DefaultCrashWindow
	}
	if plan.RecoverDelay == 0 {
		plan.RecoverDelay = DefaultRecoverDelay
	}
	if plan.Mutate != nil && plan.MutateRate == 0 {
		plan.MutateRate = 1
	}
	inj := &Injector{
		plan:       plan,
		n:          n,
		sched:      make([]nodeState, n),
		inert:      make([]bool, n),
		jammed:     make([]bool, n),
		txMark:     make([]bool, n),
		corrupt:    make([]bool, n),
		scratch:    make([]sim.Frame, n),
		byzWrapped: make([]bool, n),
	}
	inj.rewind()
	return inj, nil
}

// rewind (re)derives every stream and schedule from the plan seed; shared
// by construction and Reset.
func (inj *Injector) rewind() {
	root := rng.New(inj.plan.Seed)
	inj.jamSrc = root.SplitLabeled(jamLabel)
	inj.deliverSrc = root.SplitLabeled(deliverLabel)
	inj.hasSchedules = false
	inj.inertCount = 0
	for i := range inj.sched {
		inj.sched[i] = inj.drawSchedule(root.SplitLabels(crashLabel, uint64(i)))
		if inj.sched[i].crashSlot >= 0 {
			inj.hasSchedules = true
		}
		inj.inert[i] = false
		inj.jammed[i] = false
		inj.corrupt[i] = false
	}
	inj.jamList = inj.jamList[:0]
	inj.corruptAny = false
	inj.stats = Stats{}
	inj.panics = nil
	for _, w := range inj.wrappers {
		w.spammed, w.mutated = 0, 0
	}
}

// drawSchedule compiles one node's crash schedule from its labelled stream.
// Bernoulli(0) consumes nothing, so a zero-rate plan draws nothing at all.
func (inj *Injector) drawSchedule(src *rng.Source) nodeState {
	st := nodeState{crashSlot: -1, recoverSlot: -1}
	if !src.Bernoulli(inj.plan.CrashRate) {
		return st
	}
	st.crashSlot = 1 + src.Int63n(inj.plan.CrashWindow)
	if src.Bernoulli(inj.plan.RecoverRate) {
		st.recoverSlot = st.crashSlot + 1 + src.Int63n(inj.plan.RecoverDelay)
	}
	return st
}

// SlotStart implements sim.FaultHook: apply scheduled crash/recover
// transitions and return the inert bitmap (nil when nothing is down).
func (inj *Injector) SlotStart(slot int64, n int) []bool {
	if n != inj.n {
		panic(fmt.Sprintf("fault: injector over %d nodes driven by a %d-node engine", inj.n, n))
	}
	if inj.hasSchedules {
		for i := range inj.sched {
			st := &inj.sched[i]
			if st.down {
				if !st.panicked && st.recoverSlot == slot {
					st.down = false
					inj.inert[i] = false
					inj.inertCount--
					inj.stats.Recovered++
				}
			} else if st.crashSlot == slot {
				st.down = true
				inj.inert[i] = true
				inj.inertCount++
				inj.stats.Crashed++
			}
		}
	}
	if inj.inertCount == 0 {
		return nil
	}
	return inj.inert
}

// PerturbTransmitters implements sim.FaultHook: on a jammed slot, inject up
// to JamPower idle, live nodes into the transmit set. The jam stream is
// advanced serially in slot order, so the jammed-slot sequence is a pure
// function of the plan seed and the (deterministic) transmit history.
func (inj *Injector) PerturbTransmitters(slot int64, tx []int) []int {
	if inj.plan.JamPower <= 0 || inj.plan.JamRate <= 0 {
		return tx
	}
	for _, j := range inj.jamList {
		inj.jammed[j] = false
	}
	inj.jamList = inj.jamList[:0]
	if !inj.jamSrc.Bernoulli(inj.plan.JamRate) {
		return tx
	}
	inj.stats.JammedSlots++
	real := len(tx)
	for _, t := range tx {
		inj.txMark[t] = true
	}
	for p := 0; p < inj.plan.JamPower; p++ {
		for attempt := 0; attempt < jamAttempts; attempt++ {
			c := inj.jamSrc.Intn(inj.n)
			if inj.txMark[c] || inj.jammed[c] || inj.inert[c] {
				continue
			}
			inj.jammed[c] = true
			inj.jamList = append(inj.jamList, c)
			tx = append(tx, c)
			inj.stats.JamTransmissions++
			break
		}
	}
	for _, t := range tx[:real] {
		inj.txMark[t] = false
	}
	return tx
}

// FilterReceptions implements sim.FaultHook: scrub jammer decodes and inert
// receivers, then draw the per-delivery drop/corrupt faults in receiver
// order from the serial deliver stream.
func (inj *Injector) FilterReceptions(slot int64, receptions []sinr.Reception) {
	inj.corruptAny = false
	drop, corrupt := inj.plan.DropRate, inj.plan.CorruptRate
	if inj.inertCount == 0 && len(inj.jamList) == 0 && drop <= 0 && corrupt <= 0 {
		return
	}
	jamming := len(inj.jamList) > 0
	for i := range receptions {
		s := receptions[i].Sender
		if s < 0 {
			continue
		}
		if inj.inertCount > 0 && inj.inert[i] {
			receptions[i].Sender = -1
			inj.stats.InertScrubs++
			continue
		}
		if jamming && inj.jammed[s] {
			receptions[i].Sender = -1
			inj.stats.JamScrubs++
			continue
		}
		if drop > 0 && inj.deliverSrc.Bernoulli(drop) {
			receptions[i].Sender = -1
			inj.stats.Dropped++
			continue
		}
		if corrupt > 0 {
			if inj.deliverSrc.Bernoulli(corrupt) {
				inj.corrupt[i] = true
				inj.corruptAny = true
				inj.stats.Corrupted++
			} else {
				inj.corrupt[i] = false
			}
		}
	}
}

// DeliverFrame implements sim.FaultHook: deliveries marked corrupt get a
// per-receiver mangled copy (the pooled frame is shared with the slot's
// other receivers and must not be mutated). Concurrency-safe: distinct
// receivers touch distinct scratch frames and no stream is drawn from.
func (inj *Injector) DeliverFrame(slot int64, node int, f *sim.Frame) *sim.Frame {
	if !inj.corruptAny || !inj.corrupt[node] {
		return f
	}
	c := &inj.scratch[node]
	*c = *f
	c.Msg.ID ^= corruptIDMask
	c.Msg.Payload = nil
	c.Payload = nil
	return c
}

// NodePanicked implements sim.FaultHook: the node is crash-stopped (no
// scheduled recovery applies) and the panic is recorded.
func (inj *Injector) NodePanicked(slot int64, node int, phase string, value interface{}, stack []byte) {
	st := &inj.sched[node]
	st.panicked = true
	st.recoverSlot = -1
	if !st.down {
		st.down = true
		inj.inert[node] = true
		inj.inertCount++
	}
	inj.stats.PanicCrashes++
	if len(inj.panics) < maxPanicRecords {
		inj.panics = append(inj.panics, PanicRecord{
			Slot: slot, Node: node, Phase: phase, Value: value,
			Stack: append([]byte(nil), stack...),
		})
	}
}

// Reset implements sim.FaultHook: rewind to slot zero alongside
// Engine.Reset, re-deriving every schedule and stream from the plan seed
// over the injector's current node count.
func (inj *Injector) Reset() { inj.rewind() }

// WrapNodes wraps the plan's Byzantine selection of nodes in adversarial
// wrappers and returns the (copied) node slice to hand to the engine. Call
// once, before sim.NewEngine. Selection and wrapper behavior draw from
// per-node fault/plan/byz streams, so the Byzantine set is a pure function
// of the plan seed.
func (inj *Injector) WrapNodes(nodes []sim.Node) []sim.Node {
	frac := inj.plan.ByzantineFraction
	if frac <= 0 {
		return nodes
	}
	inj.wrappers = inj.wrappers[:0]
	for i := range inj.byzWrapped {
		inj.byzWrapped[i] = false
	}
	out := append([]sim.Node(nil), nodes...)
	root := rng.New(inj.plan.Seed)
	for i, n := range out {
		if n == nil || !root.SplitLabels(byzLabel, uint64(i), 0).Bernoulli(frac) {
			continue
		}
		w := &byzantineNode{
			inner:      n,
			seed:       inj.plan.Seed,
			spamRate:   inj.plan.SpamRate,
			mutateRate: inj.plan.MutateRate,
			mutate:     inj.plan.Mutate,
		}
		out[i] = w
		inj.wrappers = append(inj.wrappers, w)
		inj.byzWrapped[i] = true
	}
	return out
}

// Stats returns the lifetime fault counters, folding in the Byzantine
// wrappers' per-node tallies. Call between slots (not concurrently with
// Step).
func (inj *Injector) Stats() Stats {
	s := inj.stats
	s.ByzantineNodes = len(inj.wrappers)
	for _, w := range inj.wrappers {
		s.SpamFrames += w.spammed
		s.MutatedFrames += w.mutated
	}
	return s
}

// Panics returns the retained panic records (first maxPanicRecords).
func (inj *Injector) Panics() []PanicRecord { return inj.panics }

// Inert reports whether node i is currently crashed (inert).
func (inj *Injector) Inert(i int) bool { return inj.inert[i] }

// Byzantine reports whether node i was wrapped as a Byzantine adversary.
func (inj *Injector) Byzantine(i int) bool { return inj.byzWrapped[i] }

// NumNodes returns the number of nodes the injector was compiled for.
func (inj *Injector) NumNodes() int { return inj.n }
