// Package hmbcast implements the acknowledgment half of the paper's absMAC:
// the local-broadcast algorithm of Halldórsson and Mitra [29] (Algorithm
// B.1 in the paper's appendix), restated with local parameters as in
// Theorem 5.1.
//
// A node with an ongoing broadcast repeatedly transmits its bcast-message
// with an adaptive probability: the probability starts low (relative to the
// contention bound Ñ = 4Λ², the only global quantity the node knows),
// doubles every few slots, and falls back multiplicatively whenever the
// node overhears many other broadcasts — evidence that the local contention
// is high and the current probability is already "right". The node halts,
// and the MAC layer issues the acknowledgment, once its accumulated
// transmission probability exceeds a logarithmic budget, at which point all
// G_{1-ε}-neighbours have received the message with probability at least
// 1-ε_ack (Theorem B.3).
package hmbcast

import (
	"fmt"
	"math"

	"sinrmac/internal/core"
	"sinrmac/internal/macnode"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
)

// New returns a standalone acknowledgment-only MAC node (core.MAC +
// sim.Node) running this algorithm in every slot. It provides the f_ack
// guarantee of Theorem 5.1 but no progress bound; the combined MAC of
// Algorithm 11.1 (package mac) interleaves this automaton with the
// approximate-progress automaton. recorder may be nil.
func New(cfg Config, recorder *core.Recorder) *macnode.Node {
	return macnode.New(func(_ int, src *rng.Source, onData func(core.Message)) (macnode.Automaton, error) {
		return NewAutomaton(cfg, src.Split(), onData)
	}, recorder)
}

// FrameKind is the frame kind used for data transmissions of this
// algorithm, registered once at package initialisation.
var FrameKind = sim.RegisterFrameKind("hm.data")

// Config holds the algorithm parameters. The structural constants default
// to values that preserve the paper's algorithm shape at simulation scale;
// the asymptotics are unchanged.
type Config struct {
	// Lambda is the known polynomial upper bound on Λ = R_{1-ε}/dmin. The
	// contention bound Ñ = 4Λ² is derived from it (Theorem 5.1).
	Lambda float64
	// EpsAck is the acknowledgment error probability ε_ack.
	EpsAck float64
	// StepFactor is δ: the number of slots spent at each probability level
	// is StepFactor·log₂(Ñ/ε_ack).
	StepFactor float64
	// HaltFactor is γ': the node halts (and acks) once its summed
	// transmission probability exceeds HaltFactor·log₂(Ñ/ε_ack).
	HaltFactor float64
	// FallbackFactor controls the fall-back trigger: the node falls back
	// after receiving more than FallbackFactor·log₂(2Ñ/ε_ack) messages at
	// the current probability level.
	FallbackFactor float64
	// PMax caps the per-slot transmission probability (1/16 in the paper).
	PMax float64
}

// DefaultConfig returns a configuration for the given Λ bound and ε_ack
// with the default structural constants.
func DefaultConfig(lambda, epsAck float64) Config {
	return Config{Lambda: lambda, EpsAck: epsAck}
}

// SimConfig returns DefaultConfig(lambda, epsAck) with the
// simulation-scale constants StepFactor 1 and HaltFactor 4, which the
// experiments, examples and tests run. The paper's analysis constants are
// far too large to simulate; the preset halves the default slots per
// probability level and the halt budget, and both keep their growth in
// log(Ñ/ε_ack).
func SimConfig(lambda, epsAck float64) Config {
	c := DefaultConfig(lambda, epsAck)
	c.StepFactor = 1
	c.HaltFactor = 4
	return c
}

// withDefaults fills zero fields with the default constants.
func (c Config) withDefaults() Config {
	if c.StepFactor <= 0 {
		c.StepFactor = 2
	}
	if c.HaltFactor <= 0 {
		c.HaltFactor = 8
	}
	if c.FallbackFactor <= 0 {
		c.FallbackFactor = 2
	}
	if c.PMax <= 0 {
		c.PMax = 1.0 / 16
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Lambda < 1 {
		return fmt.Errorf("hmbcast: Lambda = %v must be at least 1", c.Lambda)
	}
	if c.EpsAck <= 0 || c.EpsAck >= 1 {
		return fmt.Errorf("hmbcast: EpsAck = %v must lie in (0, 1)", c.EpsAck)
	}
	c = c.withDefaults()
	if c.PMax > 0.5 {
		return fmt.Errorf("hmbcast: PMax = %v must not exceed 0.5", c.PMax)
	}
	return nil
}

// ContentionBound returns Ñ = 4Λ², the only contention information the
// algorithm is given.
func (c Config) ContentionBound() float64 {
	return sinr.MaxContentionBound(c.Lambda)
}

// logTerm returns log₂(Ñ/ε_ack) clamped below at 1.
func (c Config) logTerm() float64 {
	v := math.Log2(c.ContentionBound() / c.EpsAck)
	if v < 1 {
		return 1
	}
	return v
}

// StepLen returns the number of slots spent at each probability level.
func (c Config) StepLen() int {
	c = c.withDefaults()
	return int(math.Ceil(c.StepFactor * c.logTerm()))
}

// HaltBudget returns the accumulated-probability budget after which the
// node halts and acknowledges.
func (c Config) HaltBudget() float64 {
	c = c.withDefaults()
	return c.HaltFactor * c.logTerm()
}

// FallbackThreshold returns the number of overheard messages at one
// probability level that triggers a fall-back.
func (c Config) FallbackThreshold() int {
	c = c.withDefaults()
	v := c.FallbackFactor * math.Log2(2*c.ContentionBound()/c.EpsAck)
	if v < 1 {
		v = 1
	}
	return int(math.Ceil(v))
}

// MaxSlots returns a hard upper bound on the number of protocol slots
// before the halt condition fires: the probability never drops below
// 1/(128·Ñ), so the budget is exhausted after at most 128·Ñ·HaltBudget
// slots.
func (c Config) MaxSlots() int64 {
	return int64(math.Ceil(128 * c.ContentionBound() * c.HaltBudget()))
}

// Automaton is the per-node algorithm state machine. It is ticked once per
// protocol slot (which may be every engine slot for the standalone MAC, or
// every other slot inside the combined MAC of Algorithm 11.1). The Config
// constants it needs are resolved once at construction; Tick and Receive
// read plain fields.
type Automaton struct {
	cfg    Config
	src    *rng.Source
	onData func(m core.Message)

	// Resolved Config constants: Ñ, the halt budget, the fall-back
	// threshold and the step length.
	nTilde     float64
	haltBudget float64
	fallback   int
	stepLen    int

	active bool
	done   bool
	msg    core.Message

	p          float64
	totalProb  float64
	rcvCount   int
	slotInStep int
}

// NewAutomaton returns an automaton with the given configuration. onData is
// invoked for every received data frame (whether or not the automaton has
// an ongoing broadcast); it may be nil.
func NewAutomaton(cfg Config, src *rng.Source, onData func(core.Message)) (*Automaton, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("hmbcast: nil random source")
	}
	return &Automaton{
		cfg:        cfg.withDefaults(),
		src:        src,
		onData:     onData,
		nTilde:     cfg.ContentionBound(),
		haltBudget: cfg.HaltBudget(),
		fallback:   cfg.FallbackThreshold(),
		stepLen:    cfg.StepLen(),
	}, nil
}

// Start begins the local broadcast of m, resetting the algorithm state.
// The engine slot is ignored.
func (a *Automaton) Start(_ int64, m core.Message) {
	a.active = true
	a.done = false
	a.msg = m
	a.totalProb = 0
	a.rcvCount = 0
	a.slotInStep = 0
	// Line 2 followed by the first execution of line 4 of Algorithm B.1.
	a.p = math.Max(1/(128*a.nTilde), (1/(4*a.nTilde))/32)
}

// Abort cancels the ongoing broadcast.
func (a *Automaton) Abort() {
	a.active = false
	a.done = false
}

// Active reports whether the automaton has an ongoing broadcast that has
// not yet halted.
func (a *Automaton) Active() bool { return a.active && !a.done }

// Done reports whether the halt condition has been reached (the broadcast
// is complete and can be acknowledged). The engine slot is ignored.
func (a *Automaton) Done(int64) bool { return a.active && a.done }

// Probability returns the current per-slot transmission probability. It is
// exported for tests and instrumentation.
func (a *Automaton) Probability() float64 { return a.p }

// Tick advances the automaton by one protocol slot; a transmission fills
// the pooled frame f and returns true. The engine slot is ignored.
//
//sinrlint:hotpath
func (a *Automaton) Tick(_ int64, f *sim.Frame) bool {
	if !a.Active() {
		return false
	}
	// Line 7: double the probability at the start of every step.
	if a.slotInStep == 0 {
		a.p = math.Min(a.cfg.PMax, 2*a.p)
	}
	send := a.src.Bernoulli(a.p)
	a.totalProb += a.p
	a.slotInStep++
	if a.slotInStep >= a.stepLen {
		a.slotInStep = 0
	}
	// Line 14: halt once the probability budget is exhausted.
	if a.totalProb > a.haltBudget {
		a.done = true
	}
	if !send {
		return false
	}
	f.Kind = FrameKind
	f.Msg = a.msg
	return true
}

// Receive processes a frame decoded in one of this automaton's slots.
func (a *Automaton) Receive(f *sim.Frame) {
	if f == nil || f.Kind != FrameKind {
		return
	}
	m := f.Msg
	if a.onData != nil {
		a.onData(m)
	}
	if !a.Active() {
		return
	}
	// Lines 17-21: count overheard messages; fall back when the channel is
	// evidently busy at the current probability level.
	a.rcvCount++
	if a.rcvCount > a.fallback {
		a.p = math.Max(1/(128*a.nTilde), a.p/32)
		a.rcvCount = 0
		a.slotInStep = 0
	}
}
