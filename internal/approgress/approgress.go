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
// probability P/Q — once. Each automaton keeps a cursor into it (phase,
// slot in the phase, MIS round, slot in the round) that Tick moves by one
// slot, so no slot divides. The per-phase state is four slices: the ids
// heard in discovery, one (sender, named-this-node) pair per confirmation
// list, the sorted potential neighbours, and the sorted H̃̃ neighbours with
// the label and state each sent in the current MIS round and whether it was
// heard. Only a phase sender fills them; every phase start truncates them
// and they keep their capacity, so a node that is not a phase sender
// allocates nothing and a sender allocates only while its slices grow. On
// sinrbench mac_uniform, where one node in ten broadcasts, that took
// allocations from 57 to 8.5 per slot and peak RSS from 18.3 to 16.0 MB
// against per-phase maps made for every node (medians of ten alternating
// 20 s runs on a two-CPU host). The Config methods T, Q, DataSlots, PhaseLen and
// EpochLen derive the same schedule from scratch (logarithms, a power and
// the defaults) on every call; they are for construction, deadlines and
// reports, not for per-slot use.
package approgress

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// at construction, and a cursor into it moves one slot per Tick.
type Automaton struct {
	cfg    Config
	sch    schedule
	id     int
	src    *rng.Source
	onData func(core.Message)

	msg          core.Message // the ongoing broadcast while broadcasting
	broadcasting bool

	// Schedule cursor: the slot the next Tick runs. It moves once per
	// Tick, so an automaton that misses Ticks (a crashed node) falls out
	// of step with the others, as a slot counter of its own would.
	phase    int   // phase within the epoch
	phasePos int64 // slot within the phase
	round    int   // MIS round within the MIS block
	roundPos int64 // slot within the MIS round

	// Per-epoch state.
	epochSender bool // member of S₁ this epoch

	// Per-phase state. The slices are filled only while the node is a
	// phase sender and are truncated, not freed, at each phase start.
	phaseSender bool // member of S_φ for the current phase
	nextSender  bool // member of S_{φ+1} (decided during the MIS block)
	label       uint64
	misState    uint8
	heardIDs    []int          // the id of every FrameID received this phase
	potentials  []int          // ids heard at least NeighborThreshold times, sorted
	confirmed   []confirmation // one entry per FrameList received this phase
	neighbors   []neighbor     // H̃̃ neighbours for the current phase, sorted by id

	// Transmission scratch: the control payloads the automaton points
	// pooled frames at. Re-filled on every transmitting Tick, so a
	// receiver's view is stable for exactly one slot (the sim frame
	// lifecycle). listScratch.Potentials shares potentials' array, which
	// changes only at the end of the next phase's discovery block.
	idScratch   IDPayload
	listScratch ListPayload
	misScratch  MISPayload
}

// confirmation is what a phase sender keeps of a received potential list:
// whose list it was and whether it named this node.
type confirmation struct {
	id    int
	named bool
}

// neighbor is an H̃̃ neighbour and its MIS frame of the current round.
type neighbor struct {
	id    int
	label uint64
	state uint8
	heard bool // an MIS frame from id arrived in the current round
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
	a.msg = m
	a.broadcasting = true
}

// Abort clears the ongoing broadcast. The node keeps participating until
// the end of the current epoch, as in the paper's abort semantics, because
// epoch membership was fixed at the epoch boundary.
func (a *Automaton) Abort() {
	a.msg = core.Message{}
	a.broadcasting = false
}

// Broadcasting reports whether the node currently has an ongoing broadcast.
func (a *Automaton) Broadcasting() bool { return a.broadcasting }

// SenderActive reports whether the node is a member of the current phase's
// sender set S_φ. It is exported for tests and instrumentation.
func (a *Automaton) SenderActive() bool { return a.phaseSender }

// EpochSender reports whether the node joined S₁ in the current epoch.
func (a *Automaton) EpochSender() bool { return a.epochSender }

// Neighbors returns the node's current H̃̃-neighbour set, sorted. It is
// exported for tests and instrumentation.
func (a *Automaton) Neighbors() []int {
	out := make([]int, len(a.neighbors))
	for i, nb := range a.neighbors {
		out[i] = nb.id
	}
	return out
}

// Tick advances the automaton by one protocol slot; a transmission fills
// the pooled frame f and returns true.
//
//sinrlint:hotpath
func (a *Automaton) Tick(f *sim.Frame) bool {
	s := &a.sch
	phase, pos := a.phase, a.phasePos
	if a.phasePos++; a.phasePos == s.phaseLen {
		a.phasePos = 0
		if a.phase++; a.phase == a.cfg.Phases {
			a.phase = 0
		}
	}

	if pos == 0 {
		if phase == 0 {
			// Epoch boundary: recompute S₁ membership.
			a.epochSender = a.broadcasting
			a.phaseSender = a.epochSender
		} else {
			// S_{φ+1} membership was decided during the previous phase.
			a.phaseSender = a.phaseSender && a.nextSender
		}
		a.resetPhase()
	}

	switch {
	case pos < s.discEnd:
		return a.tickDiscovery(phase, f)
	case pos < s.listEnd:
		if pos == s.discEnd {
			a.finalizePotentials()
		}
		return a.tickList(phase, f)
	case pos < s.misEnd:
		round := a.round
		if a.roundPos == 0 {
			if round == 0 {
				a.finalizeNeighbors()
			} else {
				a.processMISRound()
			}
		}
		if a.roundPos++; a.roundPos == s.t {
			a.roundPos = 0
			a.round++
		}
		return a.tickMIS(phase, round, f)
	default:
		if pos == s.misEnd {
			a.processMISRound()
			a.finalizeMIS()
		}
		return a.tickData(f)
	}
}

func (a *Automaton) resetPhase() {
	a.nextSender = false
	a.label = a.src.Uint64()%a.cfg.LabelRange + 1
	a.misState = StateUndecided
	a.heardIDs = a.heardIDs[:0]
	a.potentials = a.potentials[:0]
	a.confirmed = a.confirmed[:0]
	a.neighbors = a.neighbors[:0]
	a.round, a.roundPos = 0, 0
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

// finalizePotentials makes every id received at least NeighborThreshold
// times during discovery a potential neighbour: it sorts the received ids
// and counts each run.
func (a *Automaton) finalizePotentials() {
	if !a.phaseSender {
		return
	}
	ids := a.heardIDs
	slices.Sort(ids)
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		if j-i >= a.cfg.NeighborThreshold {
			a.potentials = append(a.potentials, ids[i])
		}
		i = j
	}
}

func (a *Automaton) tickList(phase int, f *sim.Frame) bool {
	if !a.phaseSender || !a.src.Bernoulli(a.cfg.P) {
		return false
	}
	a.listScratch = ListPayload{Phase: phase, ID: a.id, Potentials: a.potentials}
	f.Kind = FrameList
	f.Payload = &a.listScratch
	return true
}

// finalizeNeighbors computes the H̃̃ neighbour set: v is a neighbour of u if
// v is a potential neighbour of u and u appears in the potential list that
// u received from v (the mutual-confirmation rule of Section 9.3.1). Of
// several lists received from v, the last one counts.
func (a *Automaton) finalizeNeighbors() {
	if !a.phaseSender {
		return
	}
	for _, v := range a.potentials {
		for i := len(a.confirmed) - 1; i >= 0; i-- {
			if c := a.confirmed[i]; c.id == v {
				if c.named {
					a.neighbors = append(a.neighbors, neighbor{id: v})
				}
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
// comment for how this relates to the paper's drop-out rule), and the
// survivors start the next round unheard.
func (a *Automaton) processMISRound() {
	if !a.phaseSender {
		return
	}
	kept := 0
	for _, nb := range a.neighbors {
		if nb.heard {
			nb.heard = false
			a.neighbors[kept] = nb
			kept++
		}
	}
	heardAll := kept == len(a.neighbors)
	a.neighbors = a.neighbors[:kept]
	if a.misState != StateUndecided {
		return
	}
	isMin := true
	for _, nb := range a.neighbors {
		if nb.state == StateDominator {
			a.misState = StateDominated
			return
		}
		if nb.state != StateUndecided {
			continue
		}
		if nb.label < a.label || (nb.label == a.label && nb.id < a.id) {
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
	if !a.phaseSender || !a.broadcasting {
		return false
	}
	if !a.src.Bernoulli(a.sch.dataP) {
		return false
	}
	f.Kind = FrameData
	f.Msg = a.msg
	return true
}

// Receive processes a frame decoded in one of this automaton's slots. The
// control payloads point into the sender's scratch and are only valid for
// this call, so a phase sender keeps only values: an id, whether a list
// named it, and an MIS neighbour's label and state. A frame counts
// wherever in the schedule it arrives.
func (a *Automaton) Receive(f *sim.Frame) {
	if f == nil {
		return
	}
	switch f.Kind {
	case FrameID:
		if p, ok := f.Payload.(*IDPayload); ok && a.phaseSender {
			a.heardIDs = append(a.heardIDs, p.ID)
		}
	case FrameList:
		if p, ok := f.Payload.(*ListPayload); ok && a.phaseSender {
			a.confirmed = append(a.confirmed, confirmation{id: p.ID, named: slices.Contains(p.Potentials, a.id)})
		}
	case FrameMIS:
		if p, ok := f.Payload.(*MISPayload); ok && a.phaseSender {
			i, found := slices.BinarySearchFunc(a.neighbors, p.ID, func(nb neighbor, id int) int { return cmp.Compare(nb.id, id) })
			if found {
				nb := &a.neighbors[i]
				nb.label, nb.state, nb.heard = p.Label, p.State, true
			}
		}
	case FrameData:
		if a.onData != nil {
			a.onData(f.Msg)
		}
	}
}
