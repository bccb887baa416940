// Package mac implements Algorithm 11.1: the complete probabilistic absMAC
// for the SINR model with both fast acknowledgments (Theorem 5.1) and fast
// approximate progress (Theorem 9.1).
//
// One macnode.Automaton runs the two halves by time multiplexing, exactly
// as in the paper: the Halldórsson–Mitra acknowledgment automaton (package
// hmbcast) in every even slot and the Algorithm 9.1 approximate-progress
// automaton (package approgress) in every odd slot. The combination is
// necessary because the acknowledgment algorithm alone gives no useful
// progress bound and the approximate-progress algorithm alone never
// acknowledges (Section 11).
package mac

import (
	"errors"
	"fmt"

	"sinrmac/internal/approgress"
	"sinrmac/internal/core"
	"sinrmac/internal/hmbcast"
	"sinrmac/internal/macnode"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

// Config configures the combined MAC.
type Config struct {
	// Ack configures the even-slot acknowledgment automaton.
	Ack hmbcast.Config
	// Prog configures the odd-slot approximate-progress automaton.
	Prog approgress.Config
}

// DefaultConfig returns a combined configuration for the given Λ bound,
// path-loss exponent and absMAC error probabilities.
func DefaultConfig(lambda, alpha float64, params core.Params) Config {
	return Config{
		Ack:  hmbcast.DefaultConfig(lambda, params.EpsAck),
		Prog: approgress.DefaultConfig(lambda, params.EpsApprog, alpha),
	}
}

// SimConfig returns the combined configuration with both halves at their
// simulation-scale presets, hmbcast.SimConfig and approgress.SimConfig; the
// experiments, examples and tests run it.
func SimConfig(lambda, alpha float64, params core.Params) Config {
	return Config{
		Ack:  hmbcast.SimConfig(lambda, params.EpsAck),
		Prog: approgress.SimConfig(lambda, params.EpsApprog, alpha),
	}
}

// Validate checks both halves of the configuration.
func (c Config) Validate() error {
	if err := errors.Join(c.Ack.Validate(), c.Prog.Validate()); err != nil {
		return fmt.Errorf("mac: %w", err)
	}
	return nil
}

// AckDeadline bounds the engine slots before a broadcast acknowledges: twice
// the acknowledgment automaton's own bound, as it runs every other slot.
func (c Config) AckDeadline() int64 {
	return 2 * c.Ack.MaxSlots()
}

// EpochLen returns one approximate-progress epoch in engine slots: twice
// the automaton's own epoch, as it runs every other slot.
func (c Config) EpochLen() int64 {
	return 2 * c.Prog.EpochLen()
}

// New returns one node's combined MAC endpoint. recorder may be nil; if
// provided, every absMAC interface event is recorded for the spec checker.
func New(cfg Config, recorder *core.Recorder) *macnode.Node {
	return macnode.New(func(id int, src *rng.Source, onData func(core.Message)) (macnode.Automaton, error) {
		ack, ackErr := hmbcast.NewAutomaton(cfg.Ack, src.Split(), onData)
		prog, progErr := approgress.NewAutomaton(cfg.Prog, id, src.Split(), onData)
		if err := errors.Join(ackErr, progErr); err != nil {
			return nil, fmt.Errorf("mac: %w", err)
		}
		return &combined{ack: ack, prog: prog}, nil
	}, recorder)
}

// combined holds both halves; a broadcast completes when the even-slot
// acknowledgment automaton halts.
type combined struct {
	ack  *hmbcast.Automaton
	prog *approgress.Automaton
}

func (c *combined) Start(slot int64, m core.Message) {
	c.ack.Start(slot, m)
	c.prog.Start(m)
}

func (c *combined) Abort() {
	c.ack.Abort()
	c.prog.Abort()
}

func (c *combined) Done(slot int64) bool { return c.ack.Done(slot) }

func (c *combined) Tick(slot int64, f *sim.Frame) bool {
	if slot%2 == 0 {
		return c.ack.Tick(slot, f)
	}
	return c.prog.Tick(f)
}

// Receive routes a frame to the half that owns its kind, so a frame
// transmitted by one half is never misinterpreted by the other.
func (c *combined) Receive(f *sim.Frame) {
	if f != nil && f.Kind == hmbcast.FrameKind {
		c.ack.Receive(f)
		return
	}
	c.prog.Receive(f)
}
