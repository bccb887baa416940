package sim

import (
	"fmt"
	"strings"
	"testing"

	"sinrmac/internal/sinr"
)

// boomEvaluator is the fast evaluator with a panic injected into its at-th
// SlotReceptions call.
type boomEvaluator struct {
	*sinr.FastChannel
	calls, at int
}

// SlotReceptions implements sinr.ChannelEvaluator.
func (b *boomEvaluator) SlotReceptions(transmitters []int) []sinr.Reception {
	b.calls++
	if b.calls == b.at {
		panic("evaluator boom")
	}
	return b.FastChannel.SlotReceptions(transmitters)
}

// tickBoomNode is a randomNode whose Tick panics at one slot.
type tickBoomNode struct {
	randomNode
	at int64
}

func (n *tickBoomNode) Tick(slot int64, f *Frame) bool {
	if slot == n.at {
		panic("tick boom")
	}
	return n.randomNode.Tick(slot, f)
}

// randomNodes returns n fresh randomNodes.
func randomNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &randomNode{p: 0.2}
	}
	return nodes
}

// runRecovered runs eng for slots slots and returns the value of a panic
// that escaped Run, or nil.
func runRecovered(eng *Engine, slots int64) (v interface{}) {
	defer func() { v = recover() }()
	eng.Run(slots, nil)
	return nil
}

// TestPanicReleasesSlotLoop is the regression test for a panic escaping the
// slot loop with no fault hook installed: from a node's Tick (slot 20),
// from the evaluator (slot 10) or from an observer (slot 40, in the middle
// of a Run). On one worker and with a parallel evaluator on two, the panic
// propagates out of Run, and the loop releases its re-entry guard, so the
// engine accepts Reset and runs again.
func TestPanicReleasesSlotLoop(t *testing.T) {
	const n = 80
	for _, drv := range []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{Seed: engineSeed, Workers: 1}},
		{"parallel", Config{Seed: engineSeed, Workers: 2}},
	} {
		for _, source := range []string{"tick", "evaluator", "observer"} {
			t.Run(drv.name+"/"+source, func(t *testing.T) {
				ch := scenarioChannel(t, n, 7)
				ev := &boomEvaluator{FastChannel: sinr.NewFastChannel(ch)}
				defer ev.Close()
				nodes := randomNodes(n)
				switch source {
				case "tick":
					nodes[5] = &tickBoomNode{randomNode: randomNode{p: 0.2}, at: 20}
				case "evaluator":
					ev.at = 11
				}
				cfg := drv.cfg
				cfg.Evaluator = ev
				eng, err := NewEngine(ch, nodes, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if source == "observer" {
					eng.AddObserver(ObserverFunc(func(slot int64, _ []int, _ []sinr.Reception) {
						if slot == 40 {
							panic("observer boom")
						}
					}))
				}
				if v := runRecovered(eng, 100); !strings.Contains(fmt.Sprint(v), source+" boom") {
					t.Fatalf("Run panicked with %v, want the %s panic", v, source)
				}
				if err := eng.Reset(randomNodes(n), engineSeed); err != nil {
					t.Fatalf("Reset after the panic: %v", err)
				}
				if v := runRecovered(eng, 100); v != nil {
					t.Fatalf("Run after Reset panicked: %v", v)
				}
				if got := eng.Slot(); got != 100 {
					t.Fatalf("Run after Reset reached slot %d, want 100", got)
				}
			})
		}
	}
}
