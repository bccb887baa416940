// Package approgress implements Algorithm 9.1 of the paper: the
// approximate-progress half of the absMAC implementation (Theorem 9.1),
// obtained by localising the global broadcast algorithm of Daum, Gilbert,
// Kuhn and Newport [14].
//
// Time is divided into epochs; each epoch consists of Φ = Θ(log Λ) phases.
// Within an epoch the set of senders is iteratively sparsified:
//
//   - S₁ is the set of nodes with an ongoing broadcast at the start of the
//     epoch;
//   - in each phase φ the senders estimate the constant-degree reliability
//     graph H̃̃ᵘₚ[S_φ] by repeatedly transmitting their identifiers (the
//     discovery and confirmation blocks), run a label-based maximal
//     independent set computation over it (the MIS block), and transmit
//     their bcast-message with probability p/Q (the data block);
//   - S_{φ+1} is the set of MIS dominators, which is geometrically sparser
//     than S_φ (the paper's Lemma 10.15: the minimum distance roughly
//     doubles per phase), so that by the last phase every node with a
//     broadcasting G_{1-2ε}-neighbour receives some bcast-message from a
//     G_{1-ε}-neighbour with probability 1-ε_approg.
//
// Deviations from the paper, made so the algorithm runs at simulation
// scale: the structural constants (T, Q, the number of MIS rounds) are
// configurable and default to small multiples of the paper's logarithmic
// terms rather than the astronomically large constants implied by the
// analysis; the Schneider–Wattenhofer MIS is replaced by a round-based
// local-minimum-label MIS with the same non-unique-label
// behaviour; and a sender that fails to hear one of its H̃̃-neighbours
// during an MIS round prunes that neighbour (the paper instead drops the
// whole node for the rest of the epoch — pruning keeps more senders alive
// at small scale while preserving the "wrong neighbourhood" error mode the
// paper analyses through its set W).
//
// Cost: NewAutomaton resolves the schedule — T, the block boundaries
// within a phase, the phase and epoch lengths and the data-block
// probability P/Q — once, and Tick and Receive read plain fields. The
// Config methods T, Q, DataSlots, PhaseLen and EpochLen derive the same
// schedule from scratch (logarithms, a power and the defaults) on every
// call; they are for construction, deadlines and reports, not for per-slot
// use.
package approgress

import (
	"fmt"
	"math"
	"sort"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

// Frame kinds used by the algorithm, registered once at package
// initialisation.
var (
	// FrameID is the discovery-block frame carrying the sender's id.
	FrameID = sim.RegisterFrameKind("ap.id")
	// FrameList is the confirmation-block frame carrying the sender's
	// potential-neighbour list.
	FrameList = sim.RegisterFrameKind("ap.list")
	// FrameMIS is the MIS-block frame carrying the sender's label and
	// state.
	FrameMIS = sim.RegisterFrameKind("ap.mis")
	// FrameData is the data-block frame carrying the bcast-message (in the
	// typed Frame.Msg slot; the kinds above travel in Frame.Payload as
	// pointers into the sender's per-automaton scratch).
	FrameData = sim.RegisterFrameKind("ap.data")
)

// IDPayload is the payload of FrameID frames. Like every control payload of
// this algorithm it is transmitted as a pointer into the sending
// automaton's scratch, so it is valid only until the end of the slot;
// receivers that retain any of it copy the values out.
type IDPayload struct {
	// Phase is the phase index the frame belongs to.
	Phase int
	// ID is the sender's node id.
	ID int
}

// ListPayload is the payload of FrameList frames.
type ListPayload struct {
	// Phase is the phase index the frame belongs to.
	Phase int
	// ID is the sender's node id.
	ID int
	// Potentials is the sender's potential-neighbour list (O(1) entries).
	Potentials []int
}

// MIS states carried in MISPayload.
const (
	// StateUndecided marks a competitor that has not yet joined or been
	// ruled out of the MIS.
	StateUndecided uint8 = iota
	// StateDominator marks a node that joined the MIS.
	StateDominator
	// StateDominated marks a node ruled out by a dominator neighbour.
	StateDominated
)

// MISPayload is the payload of FrameMIS frames.
type MISPayload struct {
	// Phase and Round identify the MIS round the frame belongs to.
	Phase int
	Round int
	// ID is the sender's node id.
	ID int
	// Label is the sender's temporary label for this phase.
	Label uint64
	// State is the sender's current MIS state.
	State uint8
}

// Config holds the Algorithm 9.1 parameters.
type Config struct {
	// Lambda is the known polynomial upper bound on Λ.
	Lambda float64
	// EpsApprog is the approximate-progress error probability ε_approg.
	EpsApprog float64
	// Alpha is the path-loss exponent (used for Q = Θ(log^α Λ)).
	Alpha float64

	// P is the constant transmission probability p ∈ (0, 1/2] used during
	// discovery, confirmation and MIS blocks. Default 0.1.
	P float64
	// QScale scales Q = ⌈QScale · log₂(Λ)^Alpha⌉ (minimum 1). Default 1.
	QScale float64
	// TFactor scales the block length T = ⌈TFactor · log₂(Λ/ε_approg)⌉.
	// Default 6.
	TFactor float64
	// MISRounds is the number of label-MIS rounds per phase. Default 6.
	MISRounds int
	// DataFactor scales the data-block length ⌈DataFactor·Q·log₂(1/ε)⌉.
	// Default 1.
	DataFactor float64
	// NeighborThreshold is the minimum number of receptions of an id during
	// the discovery block for the sender to become a potential neighbour
	// (the paper's (1-γ/2)µT threshold). Default 2.
	NeighborThreshold int
	// Phases overrides Φ; zero means ⌈log₂ Λ⌉ + 1.
	Phases int
	// LabelRange is the size of the temporary-label space (the paper uses
	// labels from [1, poly(Λ/ε_approg)]). Zero means a default derived from
	// Λ and ε_approg.
	LabelRange uint64
}

// DefaultConfig returns an Algorithm 9.1 configuration with default
// structural constants for the given Λ bound, ε_approg and path-loss α.
func DefaultConfig(lambda, epsApprog, alpha float64) Config {
	return Config{Lambda: lambda, EpsApprog: epsApprog, Alpha: alpha}
}

// SimConfig returns DefaultConfig(lambda, epsApprog, alpha) with the
// simulation-scale constants QScale 0.25, TFactor 3, MISRounds 3 and
// DataFactor 2, which the experiments, examples and tests run. The paper's
// analysis constants are far too large to simulate, and at small Λ even the
// defaults spend most of an epoch on discovery and MIS: the preset halves T
// and the MIS rounds, and quarters Q, so data slots transmit with four
// times the probability in a data block half as long. Every block keeps its
// logarithmic growth in Λ and 1/ε_approg. TestSimScaleAblation in
// internal/exp holds the preset's first-reception latency on a dense
// cluster within 2× of the best single-constant variant.
func SimConfig(lambda, epsApprog, alpha float64) Config {
	c := DefaultConfig(lambda, epsApprog, alpha)
	c.QScale = 0.25
	c.TFactor = 3
	c.MISRounds = 3
	c.DataFactor = 2
	return c
}

func (c Config) withDefaults() Config {
	if c.P <= 0 {
		c.P = 0.1
	}
	if c.QScale <= 0 {
		c.QScale = 1
	}
	if c.TFactor <= 0 {
		c.TFactor = 6
	}
	if c.MISRounds <= 0 {
		c.MISRounds = 6
	}
	if c.DataFactor <= 0 {
		c.DataFactor = 1
	}
	if c.NeighborThreshold <= 0 {
		c.NeighborThreshold = 2
	}
	if c.Phases <= 0 {
		c.Phases = int(math.Ceil(math.Log2(math.Max(2, c.Lambda)))) + 1
	}
	if c.LabelRange == 0 {
		r := (c.Lambda / c.EpsApprog) * (c.Lambda / c.EpsApprog) * 1024
		if r < 1024 {
			r = 1024
		}
		if r > 1<<40 {
			r = 1 << 40
		}
		c.LabelRange = uint64(r)
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Lambda < 1 {
		return fmt.Errorf("approgress: Lambda = %v must be at least 1", c.Lambda)
	}
	if c.EpsApprog <= 0 || c.EpsApprog >= 1 {
		return fmt.Errorf("approgress: EpsApprog = %v must lie in (0, 1)", c.EpsApprog)
	}
	if c.Alpha <= 2 {
		return fmt.Errorf("approgress: Alpha = %v must exceed 2", c.Alpha)
	}
	d := c.withDefaults()
	if d.P > 0.5 {
		return fmt.Errorf("approgress: P = %v must not exceed 0.5", d.P)
	}
	return nil
}

// schedule is a Config's slot schedule: the block boundaries within a
// phase, the phase and epoch lengths and the data-block probability. It is
// the only place these constants are derived; the exported Config methods
// read it, and NewAutomaton resolves it once so that Tick reads plain
// fields.
type schedule struct {
	// t is the block length T: slots per discovery and confirmation block
	// and per MIS round.
	t int64
	// discEnd, listEnd and misEnd are the phase positions at which the
	// discovery, confirmation and MIS blocks end; the data block runs from
	// misEnd to phaseLen.
	discEnd, listEnd, misEnd int64
	phaseLen, epochLen       int64
	// q is the data-block probability divisor Q and dataP = P/Q the
	// data-block transmission probability.
	q, dataP  float64
	dataSlots int
}

func (c Config) schedule() schedule {
	c = c.withDefaults()
	tv := c.TFactor * math.Log2(math.Max(2, c.Lambda/c.EpsApprog))
	if tv < 4 {
		tv = 4
	}
	qv := c.QScale * math.Pow(math.Log2(math.Max(2, c.Lambda)), c.Alpha)
	if qv < 1 {
		qv = 1
	}
	q := math.Ceil(qv)
	dv := c.DataFactor * q * math.Log2(math.Max(2, 1/c.EpsApprog))
	if dv < 8 {
		dv = 8
	}
	s := schedule{t: int64(math.Ceil(tv)), q: q, dataP: c.P / q, dataSlots: int(math.Ceil(dv))}
	s.discEnd = s.t
	s.listEnd = 2 * s.t
	s.misEnd = s.listEnd + int64(c.MISRounds)*s.t
	s.phaseLen = s.misEnd + int64(s.dataSlots)
	s.epochLen = int64(c.Phases) * s.phaseLen
	return s
}

// T returns the block length T (slots per discovery/confirmation block and
// per MIS round).
func (c Config) T() int { return int(c.schedule().t) }

// Q returns the data-block probability divisor Q = Θ(log^α Λ).
func (c Config) Q() float64 { return c.schedule().q }

// DataSlots returns the number of slots in one data block.
func (c Config) DataSlots() int { return c.schedule().dataSlots }

// PhaseCount returns Φ, the number of phases per epoch.
func (c Config) PhaseCount() int {
	return c.withDefaults().Phases
}

// MISRoundCount returns the number of MIS rounds per phase.
func (c Config) MISRoundCount() int {
	return c.withDefaults().MISRounds
}

// PhaseLen returns the number of slots in one phase: discovery (T) +
// confirmation (T) + MIS rounds (MISRounds·T) + data block.
func (c Config) PhaseLen() int64 { return c.schedule().phaseLen }

// EpochLen returns the number of slots in one epoch.
func (c Config) EpochLen() int64 { return c.schedule().epochLen }

// Automaton is the per-node Algorithm 9.1 state machine, ticked once per
// protocol slot. It never acknowledges; acknowledgment is provided by the
// other half of the combined MAC (Algorithm 11.1). Its schedule (block
// boundaries, phase and epoch lengths, data probability) is resolved once
// at construction; Tick and Receive read plain fields.
type Automaton struct {
	cfg    Config
	sch    schedule
	id     int
	src    *rng.Source
	onData func(core.Message)

	msg       *core.Message
	protoSlot int64

	// Per-epoch state.
	epochSender bool // member of S₁ this epoch

	// Per-phase state.
	phaseSender bool // member of S_φ for the current phase
	nextSender  bool // member of S_{φ+1} (decided during the MIS block)
	label       uint64
	idCounts    map[int]int
	potentials  []int
	confirmed   map[int][]int // sender id -> its potential list (from FrameList)
	neighbors   map[int]bool  // H̃̃ neighbours for the current phase
	misState    uint8
	heardRound  map[int]MISPayload // MIS messages heard in the current round
	curRound    int

	// Transmission scratch: the control payloads the automaton points
	// pooled frames at. Re-filled on every transmitting Tick, so a
	// receiver's view is stable for exactly one slot (the sim frame
	// lifecycle). listScratch additionally reuses its Potentials backing
	// array across slots.
	idScratch   IDPayload
	listScratch ListPayload
	misScratch  MISPayload
}

// NewAutomaton returns an Algorithm 9.1 automaton for the node with the
// given id. onData is invoked for every received bcast-message (data
// frame); it may be nil.
func NewAutomaton(cfg Config, id int, src *rng.Source, onData func(core.Message)) (*Automaton, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("approgress: nil random source")
	}
	return &Automaton{
		cfg:    cfg.withDefaults(),
		sch:    cfg.schedule(),
		id:     id,
		src:    src,
		onData: onData,
	}, nil
}

// Start sets m as the node's ongoing broadcast. The node joins S₁ at the
// start of the next epoch (the paper's nodes join at epoch boundaries).
func (a *Automaton) Start(m core.Message) {
	cp := m
	a.msg = &cp
}

// Abort clears the ongoing broadcast. The node keeps participating until
// the end of the current epoch, as in the paper's abort semantics, because
// epoch membership was fixed at the epoch boundary.
func (a *Automaton) Abort() {
	a.msg = nil
}

// Broadcasting reports whether the node currently has an ongoing broadcast.
func (a *Automaton) Broadcasting() bool { return a.msg != nil }

// SenderActive reports whether the node is a member of the current phase's
// sender set S_φ. It is exported for tests and instrumentation.
func (a *Automaton) SenderActive() bool { return a.phaseSender }

// EpochSender reports whether the node joined S₁ in the current epoch.
func (a *Automaton) EpochSender() bool { return a.epochSender }

// Neighbors returns the node's current H̃̃-neighbour set, sorted. It is
// exported for tests and instrumentation.
func (a *Automaton) Neighbors() []int {
	out := make([]int, 0, len(a.neighbors))
	for v := range a.neighbors {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Tick advances the automaton by one protocol slot; a transmission fills
// the pooled frame f and returns true.
//
//sinrlint:hotpath
func (a *Automaton) Tick(f *sim.Frame) bool {
	slot := a.protoSlot
	a.protoSlot++

	s := &a.sch
	epochPos := slot % s.epochLen
	phase := int(epochPos / s.phaseLen)
	phasePos := epochPos % s.phaseLen

	// Epoch boundary: recompute S₁ membership.
	if epochPos == 0 {
		a.epochSender = a.msg != nil
		a.phaseSender = a.epochSender
	}
	// Phase boundary: reset per-phase state.
	if phasePos == 0 {
		if phase > 0 {
			// S_{φ+1} membership was decided during the previous phase.
			a.phaseSender = a.phaseSender && a.nextSender
		}
		a.resetPhase()
	}

	switch {
	case phasePos < s.discEnd:
		return a.tickDiscovery(phase, f)
	case phasePos < s.listEnd:
		if phasePos == s.discEnd {
			a.finalizePotentials()
		}
		return a.tickList(phase, f)
	case phasePos < s.misEnd:
		round := int((phasePos - s.listEnd) / s.t)
		if (phasePos-s.listEnd)%s.t == 0 {
			if round == 0 {
				a.finalizeNeighbors()
			} else {
				a.processMISRound()
			}
			a.curRound = round
			//sinrlint:allow hotalloc one map per node per MIS round (every T-th slot of the MIS block), not per slot; reusing it with clear() measured no faster end to end and raised peak RSS
			a.heardRound = make(map[int]MISPayload)
		}
		return a.tickMIS(phase, round, f)
	default:
		if phasePos == s.misEnd {
			a.processMISRound()
			a.finalizeMIS()
		}
		return a.tickData(f)
	}
}

func (a *Automaton) resetPhase() {
	a.nextSender = false
	a.label = a.src.Uint64()%a.cfg.LabelRange + 1
	a.idCounts = make(map[int]int)
	a.potentials = nil
	a.confirmed = make(map[int][]int)
	a.neighbors = make(map[int]bool)
	a.misState = StateUndecided
	a.heardRound = make(map[int]MISPayload)
	a.curRound = 0
}

func (a *Automaton) tickDiscovery(phase int, f *sim.Frame) bool {
	if !a.phaseSender || !a.src.Bernoulli(a.cfg.P) {
		return false
	}
	a.idScratch = IDPayload{Phase: phase, ID: a.id}
	f.Kind = FrameID
	f.Payload = &a.idScratch
	return true
}

func (a *Automaton) finalizePotentials() {
	if !a.phaseSender {
		return
	}
	var pots []int
	for id, count := range a.idCounts {
		if count >= a.cfg.NeighborThreshold {
			pots = append(pots, id)
		}
	}
	sort.Ints(pots)
	a.potentials = pots
}

func (a *Automaton) tickList(phase int, f *sim.Frame) bool {
	if !a.phaseSender || !a.src.Bernoulli(a.cfg.P) {
		return false
	}
	a.listScratch.Phase = phase
	a.listScratch.ID = a.id
	a.listScratch.Potentials = append(a.listScratch.Potentials[:0], a.potentials...)
	f.Kind = FrameList
	f.Payload = &a.listScratch
	return true
}

// finalizeNeighbors computes the H̃̃ neighbour set: v is a neighbour of u if
// v is a potential neighbour of u and u appears in the potential list that
// u received from v (the mutual-confirmation rule of Section 9.3.1).
func (a *Automaton) finalizeNeighbors() {
	if !a.phaseSender {
		return
	}
	a.neighbors = make(map[int]bool)
	for _, v := range a.potentials {
		list, got := a.confirmed[v]
		if !got {
			continue
		}
		for _, w := range list {
			if w == a.id {
				a.neighbors[v] = true
				break
			}
		}
	}
}

func (a *Automaton) tickMIS(phase, round int, f *sim.Frame) bool {
	if !a.phaseSender || !a.src.Bernoulli(a.cfg.P) {
		return false
	}
	a.misScratch = MISPayload{
		Phase: phase, Round: round, ID: a.id, Label: a.label, State: a.misState,
	}
	f.Kind = FrameMIS
	f.Payload = &a.misScratch
	return true
}

// processMISRound applies the state transition at the end of an MIS round:
// a node dominated by an MIS neighbour becomes dominated; an undecided node
// whose label is a strict local minimum among the neighbours it heard (and
// which heard all of its neighbours) becomes a dominator. Neighbours that
// were not heard at all during the round are pruned (see the package
// comment for how this relates to the paper's drop-out rule).
func (a *Automaton) processMISRound() {
	if !a.phaseSender {
		return
	}
	// Prune neighbours that stayed silent for the whole round.
	heardAll := true
	for v := range a.neighbors {
		if _, ok := a.heardRound[v]; !ok {
			delete(a.neighbors, v)
			heardAll = false
		}
	}
	if a.misState != StateUndecided {
		return
	}
	isMin := true
	for v := range a.neighbors {
		msg := a.heardRound[v]
		if msg.State == StateDominator {
			a.misState = StateDominated
			return
		}
		if msg.State != StateUndecided {
			continue
		}
		if msg.Label < a.label || (msg.Label == a.label && v < a.id) {
			isMin = false
		}
	}
	if isMin && heardAll {
		a.misState = StateDominator
	}
}

// finalizeMIS decides S_{φ+1} membership: only dominators continue;
// undecided nodes are ignored, exactly as in the paper's modified MIS.
func (a *Automaton) finalizeMIS() {
	if !a.phaseSender {
		return
	}
	// A node with no surviving neighbours is trivially a local minimum.
	if a.misState == StateUndecided && len(a.neighbors) == 0 {
		a.misState = StateDominator
	}
	a.nextSender = a.misState == StateDominator
}

func (a *Automaton) tickData(f *sim.Frame) bool {
	if !a.phaseSender || a.msg == nil {
		return false
	}
	if !a.src.Bernoulli(a.sch.dataP) {
		return false
	}
	f.Kind = FrameData
	f.Msg = *a.msg
	return true
}

// Receive processes a frame decoded in one of this automaton's slots. The
// control payloads point into the sender's scratch and are only valid for
// this call, so anything retained (the confirmed potential lists, the
// heard-this-round MIS messages) is copied out here.
func (a *Automaton) Receive(f *sim.Frame) {
	if f == nil {
		return
	}
	switch f.Kind {
	case FrameID:
		if p, ok := f.Payload.(*IDPayload); ok && a.phaseSender {
			a.idCounts[p.ID]++
		}
	case FrameList:
		if p, ok := f.Payload.(*ListPayload); ok && a.phaseSender {
			a.confirmed[p.ID] = append([]int(nil), p.Potentials...)
		}
	case FrameMIS:
		if p, ok := f.Payload.(*MISPayload); ok && a.phaseSender {
			if a.neighbors[p.ID] {
				a.heardRound[p.ID] = *p
			}
		}
	case FrameData:
		if a.onData != nil {
			a.onData(f.Msg)
		}
	}
}
