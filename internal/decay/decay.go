// Package decay implements the classical Decay local-broadcast strategy of
// Bar-Yehuda, Goldreich and Itai [4], adapted to the SINR model.
//
// The paper uses Decay twice: as the baseline whose progress is provably
// slow on the two-balls construction (Theorem 8.1: f_approg =
// Ω(Δ·log(1/ε))), and — via flooding — as the classical graph-model global
// broadcast that Table 2 compares against. This package provides the
// per-node automaton, a standalone MAC node compatible with core.MAC, and
// is reused by the experiment harness for both purposes.
//
// Time is divided into decay phases of K = ⌈log₂ Δ̃⌉+1 slots. In slot j of a
// phase (j = 0, 1, ..., K-1) every node with an ongoing broadcast transmits
// its message with probability 2^{-j}: all contenders start at probability
// one and halve in lockstep, which is exactly the coupling that the
// two-balls lower bound exploits.
package decay

import (
	"fmt"
	"math"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

// FrameKind is the frame kind used for Decay data transmissions, registered
// once at package initialisation.
var FrameKind = sim.RegisterFrameKind("decay.data")

// Config holds the Decay parameters.
type Config struct {
	// DeltaBound is the known upper bound Δ̃ on the local contention (the
	// classical algorithm assumes a bound on the maximum degree or the
	// network size). It determines the phase length ⌈log₂ Δ̃⌉+1.
	DeltaBound float64
	// EpsAck is the target error probability for the acknowledgment: the
	// node keeps repeating decay phases until enough phases have elapsed
	// that every neighbour received the message with probability at least
	// 1-EpsAck under the classical analysis.
	EpsAck float64
	// AckPhaseFactor scales the number of phases before the node
	// acknowledges; the default reproduces the O(Δ̃ + log(1/ε)) phase count
	// of the classical bound.
	AckPhaseFactor float64
}

// DefaultConfig returns a Decay configuration with default constants.
func DefaultConfig(deltaBound, epsAck float64) Config {
	return Config{DeltaBound: deltaBound, EpsAck: epsAck}
}

func (c Config) withDefaults() Config {
	if c.AckPhaseFactor <= 0 {
		c.AckPhaseFactor = 1
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.DeltaBound < 1 {
		return fmt.Errorf("decay: DeltaBound = %v must be at least 1", c.DeltaBound)
	}
	if c.EpsAck <= 0 || c.EpsAck >= 1 {
		return fmt.Errorf("decay: EpsAck = %v must lie in (0, 1)", c.EpsAck)
	}
	return nil
}

// PhaseLen returns the number of slots in one decay phase.
func (c Config) PhaseLen() int {
	return int(math.Ceil(math.Log2(math.Max(2, c.DeltaBound)))) + 1
}

// AckPhases returns the number of phases after which a broadcasting node
// acknowledges.
func (c Config) AckPhases() int {
	c = c.withDefaults()
	v := c.AckPhaseFactor * (c.DeltaBound + math.Log2(1/c.EpsAck))
	if v < 1 {
		v = 1
	}
	return int(math.Ceil(v))
}

// AckSlots returns the total number of protocol slots before the
// acknowledgment fires.
func (c Config) AckSlots() int64 {
	return int64(c.AckPhases()) * int64(c.PhaseLen())
}

// Automaton is the per-node Decay state machine, ticked once per protocol
// slot. Its phase length and acknowledgment phase count are resolved once
// at construction.
type Automaton struct {
	src       *rng.Source
	onData    func(core.Message)
	phaseLen  int
	ackPhases int

	active    bool
	done      bool
	msg       core.Message
	slotInPh  int
	phaseDone int
}

// NewAutomaton returns a Decay automaton. onData is invoked for every
// received data frame and may be nil.
func NewAutomaton(cfg Config, src *rng.Source, onData func(core.Message)) (*Automaton, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("decay: nil random source")
	}
	return &Automaton{
		src:       src,
		onData:    onData,
		phaseLen:  cfg.PhaseLen(),
		ackPhases: cfg.AckPhases(),
	}, nil
}

// Start begins the Decay broadcast of m. The engine slot is ignored.
func (a *Automaton) Start(_ int64, m core.Message) {
	a.active = true
	a.done = false
	a.msg = m
	a.slotInPh = 0
	a.phaseDone = 0
}

// Abort cancels the ongoing broadcast.
func (a *Automaton) Abort() {
	a.active = false
	a.done = false
}

// Active reports whether a broadcast is ongoing and not yet complete.
func (a *Automaton) Active() bool { return a.active && !a.done }

// Done reports whether the broadcast has completed (enough phases
// elapsed). The engine slot is ignored.
func (a *Automaton) Done(int64) bool { return a.active && a.done }

// Tick advances the automaton one protocol slot; a transmission fills the
// pooled frame f and returns true. The engine slot is ignored.
//
//sinrlint:hotpath
func (a *Automaton) Tick(_ int64, f *sim.Frame) bool {
	if !a.Active() {
		return false
	}
	// 2^{-j}, exactly: Ldexp equals math.Pow(2, -j) bit for bit at every
	// phase position (TestLdexpMatchesPow).
	send := a.src.Bernoulli(math.Ldexp(1, -a.slotInPh))
	a.slotInPh++
	if a.slotInPh >= a.phaseLen {
		a.slotInPh = 0
		a.phaseDone++
		if a.phaseDone >= a.ackPhases {
			a.done = true
		}
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
	if a.onData != nil {
		a.onData(f.Msg)
	}
}
