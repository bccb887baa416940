package hmbcast

import (
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

// recordingLayer is a core.Layer that records the callbacks it receives and
// optionally issues one broadcast at a given slot.
type recordingLayer struct {
	core.NopLayer

	node      int
	mac       core.MAC
	bcastAt   int64
	bcastMsg  core.Message
	issued    bool
	acks      []core.Message
	rcvs      []core.Message
	ackSlots  []int64
	attachOK  bool
	slotCalls int
}

func (l *recordingLayer) Attach(node int, mac core.MAC, src *rng.Source) {
	l.node = node
	l.mac = mac
	l.attachOK = mac != nil && src != nil
}

func (l *recordingLayer) OnSlot(slot int64) {
	l.slotCalls++
	if !l.issued && l.bcastMsg.ID != 0 && slot >= l.bcastAt {
		l.mac.Bcast(slot, l.bcastMsg)
		l.issued = true
	}
}

func (l *recordingLayer) OnRcv(slot int64, m core.Message) { l.rcvs = append(l.rcvs, m) }

func (l *recordingLayer) OnAck(slot int64, m core.Message) {
	l.acks = append(l.acks, m)
	l.ackSlots = append(l.ackSlots, slot)
}

// buildCluster builds a deployment where every node is in strong range of
// every other (a clique in G_{1-ε}), with the given number of nodes.
func buildCluster(t testing.TB, n int, seed uint64) *topology.Deployment {
	t.Helper()
	d, err := topology.Clusters(1, n, sinr.DefaultParams(30), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNodeSingleBroadcastReachesAllNeighbors(t *testing.T) {
	d := buildCluster(t, 8, 1)
	rec := core.NewRecorder()
	cfg := DefaultConfig(d.Lambda(), 0.1)

	nodes := make([]sim.Node, d.NumNodes())
	layers := make([]*recordingLayer, d.NumNodes())
	for i := range nodes {
		n := New(cfg, rec)
		layers[i] = &recordingLayer{}
		if i == 0 {
			layers[i].bcastMsg = core.Message{ID: 42, Origin: 0, Payload: "hello"}
		}
		n.SetLayer(layers[i])
		nodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(cfg.MaxSlots()+10, func() bool { return len(layers[0].acks) > 0 })

	if len(layers[0].acks) != 1 || layers[0].acks[0].ID != 42 {
		t.Fatalf("broadcaster acks = %+v", layers[0].acks)
	}
	// Every other node received the message exactly once via OnRcv.
	for i := 1; i < len(layers); i++ {
		if len(layers[i].rcvs) != 1 || layers[i].rcvs[0].ID != 42 {
			t.Fatalf("node %d rcvs = %+v", i, layers[i].rcvs)
		}
	}
	// The spec checker agrees: one acked broadcast, no violations.
	rep := core.CheckAcks(rec.Events(), d.StrongGraph())
	if rep.Acked != 1 || rep.Violations != 0 {
		t.Fatalf("ack report = %+v", rep)
	}
	if rep.MaxLatency <= 0 {
		t.Fatal("ack latency not positive")
	}
	if !layers[0].attachOK {
		t.Fatal("layer Attach not called with MAC and source")
	}
}

func TestNodeConcurrentBroadcastersAllAck(t *testing.T) {
	d := buildCluster(t, 10, 3)
	rec := core.NewRecorder()
	cfg := DefaultConfig(d.Lambda(), 0.1)

	nodes := make([]sim.Node, d.NumNodes())
	layers := make([]*recordingLayer, d.NumNodes())
	for i := range nodes {
		n := New(cfg, rec)
		layers[i] = &recordingLayer{}
		// Half the nodes broadcast, staggered by a few slots.
		if i%2 == 0 {
			layers[i].bcastAt = int64(i)
			layers[i].bcastMsg = core.Message{ID: core.MessageID(100 + i), Origin: i}
		}
		n.SetLayer(layers[i])
		nodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	allAcked := func() bool {
		for i, l := range layers {
			if i%2 == 0 && len(l.acks) == 0 {
				return false
			}
		}
		return true
	}
	eng.Run(4*cfg.MaxSlots(), allAcked)
	if !allAcked() {
		t.Fatal("not all broadcasters acknowledged")
	}
	rep := core.CheckAcks(rec.Events(), d.StrongGraph())
	if rep.Acked != 5 {
		t.Fatalf("acked = %d, want 5", rep.Acked)
	}
	// With ε_ack = 0.1 and 5 broadcasts in a clique, allow at most one
	// delivery violation.
	if rep.Violations > 1 {
		t.Fatalf("too many nice-execution violations: %+v", rep)
	}
}
