// Consensus example: network-wide binary consensus over the abstract MAC
// layer, reproducing the Corollary 5.5 construction — the consensus layer
// only relies on the acknowledgment bound f_ack, so it runs over the
// acknowledgment-only MAC of Theorem 5.1.
//
// Run with:
//
//	go run ./examples/consensus
package main

import (
	"fmt"
	"os"

	"sinrmac/internal/consensus"
	"sinrmac/internal/core"
	"sinrmac/internal/hmbcast"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "consensus: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// A line network maximises the diameter, the parameter that dominates
	// the consensus running time D·f_ack.
	params := sinr.DefaultParams(12)
	deployment, err := topology.Line(12, 4, params)
	if err != nil {
		return err
	}
	strong := deployment.StrongGraph()
	diameter := strong.Diameter()
	fmt.Printf("deployment: %d nodes on a line, diameter %d, max degree %d\n",
		deployment.NumNodes(), diameter, strong.MaxDegree())

	macCfg := hmbcast.SimConfig(deployment.Lambda(), 0.05)

	// Mixed initial values.
	src := rng.New(3)
	initials := make([]consensus.Value, deployment.NumNodes())
	for i := range initials {
		initials[i] = consensus.Value(uint8(src.Intn(2)))
	}

	layers := make([]*consensus.Node, deployment.NumNodes())
	nodes := make([]sim.Node, deployment.NumNodes())
	for i := range nodes {
		layer, err := consensus.New(consensus.Config{Rounds: diameter + 2}, initials[i])
		if err != nil {
			return err
		}
		layers[i] = layer
		node := hmbcast.New(macCfg, nil)
		node.SetLayer(layer)
		nodes[i] = node
	}

	channel, err := deployment.Channel()
	if err != nil {
		return err
	}
	engine, err := sim.NewEngine(channel, nodes, sim.Config{Seed: 3})
	if err != nil {
		return err
	}
	deadline := int64(diameter+4) * macCfg.MaxSlots()
	engine.Run(deadline, func() bool {
		_, done := consensus.DecisionSlot(layers)
		return done
	})

	if err := consensus.CheckAgreement(layers, initials); err != nil {
		return err
	}
	slot, _ := consensus.DecisionSlot(layers)
	_, value, _ := layers[0].Decided()
	theory := core.TheoreticalCons(diameter, strong.MaxDegree(), deployment.NumNodes(), deployment.Lambda(), 0.1)
	fmt.Printf("inputs: %v\n", initials)
	fmt.Printf("all nodes decided %d by slot %d (agreement, validity and termination verified)\n", value, slot)
	fmt.Printf("Corollary 5.5 bound shape D·(Δ+logΛ)·log(nΛ/ε) = %.0f\n", theory)
	return nil
}
