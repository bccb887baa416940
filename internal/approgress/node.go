package approgress

import (
	"sinrmac/internal/core"
	"sinrmac/internal/macnode"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

// NewNode returns a standalone progress-only MAC endpoint running Algorithm
// 9.1 in every slot. It provides the approximate-progress guarantee of
// Theorem 9.1 but no acknowledgment bound: the ack fires ackAfter engine
// slots after a Bcast, mirroring the paper's convention that a bcast keeps a
// node in S₁ for f_ack/2 slots; zero or a negative ackAfter never
// acknowledges. The combined MAC of Algorithm 11.1 (package mac) pairs this
// automaton with the Halldórsson–Mitra acknowledgment automaton instead.
// recorder may be nil.
func NewNode(cfg Config, ackAfter int64, recorder *core.Recorder) *macnode.Node {
	return macnode.New(func(id int, src *rng.Source, onData func(core.Message)) (macnode.Automaton, error) {
		aut, err := NewAutomaton(cfg, id, src.Split(), onData)
		if err != nil {
			return nil, err
		}
		return &timed{Automaton: aut, ackAfter: ackAfter}, nil
	}, recorder)
}

// timed completes a broadcast ackAfter engine slots after its Start.
type timed struct {
	*Automaton
	ackAfter, start int64
}

func (t *timed) Start(slot int64, m core.Message) {
	t.start = slot
	t.Automaton.Start(m)
}

func (t *timed) Done(slot int64) bool { return t.ackAfter > 0 && slot-t.start >= t.ackAfter }

func (t *timed) Tick(_ int64, f *sim.Frame) bool { return t.Automaton.Tick(f) }
