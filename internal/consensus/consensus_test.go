package consensus

import (
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/hmbcast"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

func TestConfigAndConstructor(t *testing.T) {
	if _, err := New(Config{Rounds: 0}, Zero); err == nil {
		t.Fatal("zero rounds accepted")
	}
	if _, err := New(Config{Rounds: 3}, Value(7)); err == nil {
		t.Fatal("non-binary initial value accepted")
	}
	if _, err := New(Config{Rounds: 3}, One); err != nil {
		t.Fatal(err)
	}
}

// ackImmediatelyMAC is a fake MAC that acknowledges every broadcast on the
// next OnSlot call and delivers nothing.
type ackImmediatelyMAC struct {
	layer   core.Layer
	pending *core.Message
}

func (f *ackImmediatelyMAC) Bcast(slot int64, m core.Message) { cp := m; f.pending = &cp }
func (f *ackImmediatelyMAC) Abort(int64, core.MessageID)      { f.pending = nil }
func (f *ackImmediatelyMAC) SetLayer(l core.Layer)            { f.layer = l }
func (f *ackImmediatelyMAC) Busy() bool                       { return f.pending != nil }

func (f *ackImmediatelyMAC) step(slot int64) {
	if f.pending != nil {
		m := *f.pending
		f.pending = nil
		f.layer.OnAck(slot, m)
	}
	f.layer.OnSlot(slot)
}

func TestSingleNodeDecidesOwnValue(t *testing.T) {
	n, err := New(Config{Rounds: 3}, One)
	if err != nil {
		t.Fatal(err)
	}
	m := &ackImmediatelyMAC{}
	m.SetLayer(n)
	n.Attach(5, m, rng.New(1))
	for slot := int64(0); slot < 20; slot++ {
		m.step(slot)
	}
	ok, v, _ := n.Decided()
	if !ok || v != One {
		t.Fatalf("Decided = %v/%d", ok, v)
	}
	if n.Leader() != 5 {
		t.Fatalf("Leader = %d", n.Leader())
	}
	if err := CheckAgreement([]*Node{n}, []Value{One}); err != nil {
		t.Fatal(err)
	}
}

func TestAdoptHigherLeader(t *testing.T) {
	n, err := New(Config{Rounds: 5}, Zero)
	if err != nil {
		t.Fatal(err)
	}
	m := &ackImmediatelyMAC{}
	m.SetLayer(n)
	n.Attach(2, m, rng.New(1))
	n.OnRcv(1, core.Message{ID: 99, Origin: 7, Payload: Payload{Leader: 7, Value: One, Round: 0}})
	if n.Leader() != 7 {
		t.Fatalf("Leader = %d after hearing higher id", n.Leader())
	}
	// Lower leaders and malformed payloads are ignored.
	n.OnRcv(2, core.Message{ID: 100, Origin: 1, Payload: Payload{Leader: 1, Value: Zero}})
	n.OnRcv(3, core.Message{ID: 101, Origin: 1, Payload: "garbage"})
	if n.Leader() != 7 {
		t.Fatalf("Leader overwritten: %d", n.Leader())
	}
	for slot := int64(0); slot < 30; slot++ {
		m.step(slot)
	}
	ok, v, _ := n.Decided()
	if !ok || v != One {
		t.Fatalf("Decided = %v/%d, want adopted value 1", ok, v)
	}
}

func TestCheckAgreementDetectsViolations(t *testing.T) {
	mkDecided := func(v Value) *Node {
		n, err := New(Config{Rounds: 1}, v)
		if err != nil {
			t.Fatal(err)
		}
		m := &ackImmediatelyMAC{}
		m.SetLayer(n)
		n.Attach(0, m, rng.New(1))
		for slot := int64(0); slot < 10; slot++ {
			m.step(slot)
		}
		return n
	}
	undecided, err := New(Config{Rounds: 5}, Zero)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAgreement([]*Node{mkDecided(Zero), undecided}, []Value{Zero, Zero}); err == nil {
		t.Fatal("termination violation not detected")
	}
	if err := CheckAgreement([]*Node{mkDecided(Zero), mkDecided(One)}, []Value{Zero, One}); err == nil {
		t.Fatal("agreement violation not detected")
	}
	if err := CheckAgreement([]*Node{mkDecided(One)}, []Value{Zero}); err == nil {
		t.Fatal("validity violation not detected")
	}
	if err := CheckAgreement(nil, nil); err != nil {
		t.Fatalf("empty node set rejected: %v", err)
	}
}

func TestDecisionSlot(t *testing.T) {
	n, err := New(Config{Rounds: 2}, Zero)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := DecisionSlot([]*Node{n}); ok {
		t.Fatal("DecisionSlot complete before decision")
	}
}

// runConsensus wires consensus layers over acknowledgment MACs on the given
// deployment and runs until all nodes decide or the deadline passes.
func runConsensus(t *testing.T, d *topology.Deployment, initials []Value, rounds int, seed uint64) []*Node {
	t.Helper()
	rec := core.NewRecorder()
	cfg := hmbcast.SimConfig(d.Lambda(), 0.05)

	layers := make([]*Node, d.NumNodes())
	nodes := make([]sim.Node, d.NumNodes())
	for i := range nodes {
		l, err := New(Config{Rounds: rounds}, initials[i])
		if err != nil {
			t.Fatal(err)
		}
		layers[i] = l
		n := hmbcast.New(cfg, rec)
		n.SetLayer(l)
		nodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	deadline := int64(rounds+2) * cfg.MaxSlots()
	eng.Run(deadline, func() bool {
		_, done := DecisionSlot(layers)
		return done
	})
	return layers
}

func TestConsensusOnLineNetwork(t *testing.T) {
	params := sinr.DefaultParams(10)
	d, err := topology.Line(6, 4, params)
	if err != nil {
		t.Fatal(err)
	}
	diam := d.StrongGraph().Diameter()
	initials := make([]Value, d.NumNodes())
	// Mixed initial values; the highest-id node (id 5) starts with 1.
	for i := range initials {
		initials[i] = Value(uint8(i % 2))
	}
	layers := runConsensus(t, d, initials, diam+2, 31)
	if err := CheckAgreement(layers, initials); err != nil {
		t.Fatal(err)
	}
	// The decided value is the initial value of the maximum-id node.
	_, v, _ := layers[0].Decided()
	if v != initials[d.NumNodes()-1] {
		t.Fatalf("decided %d, want the max-id node's value %d", v, initials[d.NumNodes()-1])
	}
}

func TestConsensusOnClusterAllZero(t *testing.T) {
	d, err := topology.Clusters(1, 8, sinr.DefaultParams(20), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	initials := make([]Value, d.NumNodes())
	layers := runConsensus(t, d, initials, 3, 37)
	if err := CheckAgreement(layers, initials); err != nil {
		t.Fatal(err)
	}
	_, v, _ := layers[0].Decided()
	if v != Zero {
		t.Fatalf("all-zero input decided %d (validity violated)", v)
	}
}
