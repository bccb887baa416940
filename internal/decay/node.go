package decay

import (
	"sinrmac/internal/core"
	"sinrmac/internal/macnode"
	"sinrmac/internal/rng"
)

// New returns a standalone Decay-based MAC node (core.MAC + sim.Node)
// running the Decay automaton in every slot. It is the baseline MAC used by
// the Theorem 8.1 experiment and by the Decay-flooding rows of the global
// broadcast comparisons. recorder may be nil.
func New(cfg Config, recorder *core.Recorder) *macnode.Node {
	return macnode.New(func(_ int, src *rng.Source, onData func(core.Message)) (macnode.Automaton, error) {
		return NewAutomaton(cfg, src.Split(), onData)
	}, recorder)
}
