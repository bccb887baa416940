// Quickstart: build a random SINR deployment, run the paper's combined
// abstract MAC layer (Algorithm 11.1) underneath the BSMB global broadcast
// protocol, and verify the absMAC guarantees with the spec checker.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"sinrmac/internal/bcastproto"
	"sinrmac/internal/core"
	"sinrmac/internal/mac"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. A deployment: 40 nodes placed uniformly at random (unit minimum
	// spacing) with transmission range 12, redrawn until G_{1-ε} is
	// connected.
	params := sinr.DefaultParams(12)
	deployment, err := topology.ConnectedUniform(40, 28, params, rng.New(7), 100)
	if err != nil {
		return err
	}
	strong := deployment.StrongGraph()
	fmt.Printf("deployment: %d nodes, max degree %d, diameter %d, lambda %.1f\n",
		deployment.NumNodes(), strong.MaxDegree(), strong.Diameter(), deployment.Lambda())

	// 2. One combined MAC node (Algorithm 11.1) per deployment node, with a
	// BSMB layer on top. Node 0 is the broadcast source.
	recorder := core.NewRecorder()
	// Simulation-scale constants: the paper's analysis constants are far
	// too large to simulate.
	macCfg := mac.SimConfig(deployment.Lambda(), params.Alpha, core.DefaultParams())

	message := core.Message{ID: 1, Origin: 0, Payload: "hello, SINR world"}
	layers := make([]*bcastproto.BMMB, deployment.NumNodes())
	nodes := make([]sim.Node, deployment.NumNodes())
	for i := range nodes {
		if i == message.Origin {
			layers[i] = bcastproto.NewBSMB(message)
		} else {
			layers[i] = bcastproto.NewBSMB()
		}
		node := mac.New(macCfg, recorder)
		node.SetLayer(layers[i])
		nodes[i] = node
	}

	// 3. Run the slotted SINR simulation until every node has delivered the
	// message.
	channel, err := deployment.Channel()
	if err != nil {
		return err
	}
	engine, err := sim.NewEngine(channel, nodes, sim.Config{Seed: 7})
	if err != nil {
		return err
	}
	ids := []core.MessageID{message.ID}
	deadline := int64(strong.Diameter()+5) * macCfg.AckDeadline()
	// Run until every node has delivered the message and at least the
	// source's acknowledged local broadcast has completed, so the ack
	// report below has something to show.
	engine.Run(deadline, func() bool {
		return bcastproto.AllDelivered(layers, ids) && len(recorder.EventsOfKind(core.EventAck)) > 0
	})

	slot, done := bcastproto.CompletionSlot(layers, ids)
	if !done {
		return fmt.Errorf("broadcast did not complete within %d slots", deadline)
	}
	fmt.Printf("global single-message broadcast completed at slot %d\n", slot)

	// 4. Check the absMAC guarantees on the recorded trace.
	events := recorder.Events()
	ackReport := core.CheckAcks(events, strong)
	progress := core.MeasureProgress(events, strong, deployment.ApproxGraph(), engine.Slot())
	fmt.Printf("acknowledgments: %d acked, %d violations, mean f_ack %.0f slots\n",
		ackReport.Acked, ackReport.Violations, ackReport.MeanLatency)
	fmt.Printf("approximate progress: %.0f%% of windows satisfied, mean latency %.0f slots\n",
		100*progress.SatisfactionRate(), progress.MeanLatency)
	return nil
}
