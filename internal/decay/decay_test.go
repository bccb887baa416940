package decay

import (
	"math"
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/graphs"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(16, 0.1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{DeltaBound: 0.5, EpsAck: 0.1},
		{DeltaBound: 16, EpsAck: 0},
		{DeltaBound: 16, EpsAck: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	cfg := DefaultConfig(16, 0.1)
	if got := cfg.PhaseLen(); got != 5 {
		t.Fatalf("PhaseLen = %d, want 5", got)
	}
	if cfg.AckPhases() <= 0 {
		t.Fatal("AckPhases not positive")
	}
	if cfg.AckSlots() != int64(cfg.AckPhases()*cfg.PhaseLen()) {
		t.Fatal("AckSlots inconsistent")
	}
	// Larger contention bound means longer phases and more of them.
	big := DefaultConfig(1024, 0.1)
	if big.PhaseLen() <= cfg.PhaseLen() || big.AckPhases() <= cfg.AckPhases() {
		t.Fatal("phase structure not monotone in DeltaBound")
	}
}

// TestLdexpMatchesPow pins the Tick's transmission probability: Ldexp(1,
// -j) is bit-identical to math.Pow(2, -j) at every position j of a phase.
func TestLdexpMatchesPow(t *testing.T) {
	for _, delta := range []float64{1, 16, 33, 4096, 1e300} {
		cfg := DefaultConfig(delta, 0.1)
		for j := 0; j <= cfg.PhaseLen(); j++ {
			got, want := math.Ldexp(1, -j), math.Pow(2, -float64(j))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DeltaBound %g, j = %d: Ldexp %v, Pow %v", delta, j, got, want)
			}
		}
	}
}

func TestAutomatonResolvesConfig(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(16, 0.1), DefaultConfig(1000, 0.001), {DeltaBound: 33, EpsAck: 0.2, AckPhaseFactor: 2.5}} {
		a, err := NewAutomaton(cfg, rng.New(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.phaseLen != cfg.PhaseLen() || a.ackPhases != cfg.AckPhases() {
			t.Errorf("%+v: resolved %d slots x %d phases, want %d x %d", cfg, a.phaseLen, a.ackPhases, cfg.PhaseLen(), cfg.AckPhases())
		}
	}
}

func TestAutomatonConstructorErrors(t *testing.T) {
	if _, err := NewAutomaton(Config{DeltaBound: 0, EpsAck: 0.1}, rng.New(1), nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewAutomaton(DefaultConfig(8, 0.1), nil, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

// tick drives one automaton Tick with a throwaway pooled frame, returning
// whether the automaton transmitted.
func tick(a *Automaton) bool {
	var f sim.Frame
	return a.Tick(0, &f)
}

func TestAutomatonLifecycle(t *testing.T) {
	cfg := DefaultConfig(8, 0.1)
	aut, err := NewAutomaton(cfg, rng.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if aut.Active() || aut.Done(0) {
		t.Fatal("fresh automaton active")
	}
	if tick(aut) {
		t.Fatal("idle automaton transmitted")
	}
	aut.Start(0, core.Message{ID: 1, Origin: 0})
	if !aut.Active() {
		t.Fatal("not active after Start")
	}
	sent := 0
	for i := int64(0); i < cfg.AckSlots(); i++ {
		if tick(aut) {
			sent++
		}
	}
	if !aut.Done(0) {
		t.Fatal("automaton not done after AckSlots slots")
	}
	if sent == 0 {
		t.Fatal("automaton never transmitted")
	}
	aut.Abort()
	if aut.Active() || aut.Done(0) {
		t.Fatal("aborted automaton still active")
	}
}

func TestAutomatonFirstSlotAlwaysTransmits(t *testing.T) {
	// In slot 0 of every phase the transmission probability is 1.
	cfg := DefaultConfig(8, 0.1)
	aut, err := NewAutomaton(cfg, rng.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	aut.Start(0, core.Message{ID: 1, Origin: 0})
	for phase := 0; phase < 5; phase++ {
		if !tick(aut) {
			t.Fatalf("phase %d slot 0 did not transmit", phase)
		}
		for j := 1; j < cfg.PhaseLen(); j++ {
			tick(aut)
		}
	}
}

func TestAutomatonReceiveCallback(t *testing.T) {
	var got []core.Message
	aut, err := NewAutomaton(DefaultConfig(8, 0.1), rng.New(4), func(m core.Message) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	aut.Receive(nil)
	aut.Receive(&sim.Frame{Kind: sim.RegisterFrameKind("hm.data"), Msg: core.Message{ID: 9}})
	aut.Receive(&sim.Frame{Kind: FrameKind, Msg: core.Message{ID: 5, Origin: 2}})
	if len(got) != 1 || got[0].ID != 5 {
		t.Fatalf("onData saw %+v", got)
	}
}

// bcastOnce is a minimal layer that issues a single broadcast at slot 0.
type bcastOnce struct {
	core.NopLayer
	mac  core.MAC
	msg  core.Message
	acks int
	rcvs []core.Message
	sent bool
}

func (l *bcastOnce) Attach(node int, mac core.MAC, src *rng.Source) { l.mac = mac }

func (l *bcastOnce) OnSlot(slot int64) {
	if !l.sent && l.msg.ID != 0 {
		l.mac.Bcast(slot, l.msg)
		l.sent = true
	}
}

func (l *bcastOnce) OnRcv(slot int64, m core.Message) { l.rcvs = append(l.rcvs, m) }
func (l *bcastOnce) OnAck(slot int64, m core.Message) { l.acks++ }

func TestDecayNodeSingleBroadcast(t *testing.T) {
	d, err := topology.Clusters(1, 6, sinr.DefaultParams(30), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	rec := core.NewRecorder()
	cfg := DefaultConfig(8, 0.1)
	nodes := make([]sim.Node, d.NumNodes())
	layers := make([]*bcastOnce, d.NumNodes())
	for i := range nodes {
		n := New(cfg, rec)
		layers[i] = &bcastOnce{}
		if i == 0 {
			layers[i].msg = core.Message{ID: 77, Origin: 0}
		}
		n.SetLayer(layers[i])
		nodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(cfg.AckSlots()+5, nil)
	if layers[0].acks != 1 {
		t.Fatalf("broadcaster acks = %d", layers[0].acks)
	}
	for i := 1; i < len(layers); i++ {
		if len(layers[i].rcvs) != 1 {
			t.Fatalf("node %d received %d messages, want 1", i, len(layers[i].rcvs))
		}
	}
	rep := core.CheckAcks(rec.Events(), d.StrongGraph())
	if rep.Acked != 1 || rep.Violations != 0 {
		t.Fatalf("ack report = %+v", rep)
	}
}

func TestDecayProgressSlowerWithContention(t *testing.T) {
	// Sanity check of the Theorem 8.1 mechanism at small scale: with many
	// coupled contenders in strong range of a receiver, the first
	// successful reception takes longer than with a single sender.
	single := measureFirstReception(t, 1, 101)
	crowded := measureFirstReception(t, 24, 101)
	if crowded < single {
		t.Fatalf("reception with 24 contenders (%d slots) faster than with 1 (%d slots)", crowded, single)
	}
}

// measureFirstReception builds one cluster of senders+1 nodes where every
// node except node 0 broadcasts, and returns the slot at which node 0 first
// receives anything.
func measureFirstReception(t *testing.T, senders int, seed uint64) int64 {
	t.Helper()
	d, err := topology.Clusters(1, senders+1, sinr.DefaultParams(40), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	rec := core.NewRecorder()
	cfg := DefaultConfig(64, 0.1)
	nodes := make([]sim.Node, d.NumNodes())
	for i := range nodes {
		n := New(cfg, rec)
		l := &bcastOnce{}
		if i != 0 {
			l.msg = core.Message{ID: core.MessageID(i), Origin: i}
		}
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
	firstRcv := int64(-1)
	eng.Run(20000, func() bool {
		for _, ev := range rec.EventsOfKind(core.EventRcv) {
			if ev.Node == 0 {
				firstRcv = ev.Slot
				return true
			}
		}
		return false
	})
	if firstRcv < 0 {
		t.Fatalf("node 0 never received anything with %d senders", senders)
	}
	return firstRcv
}

func TestDecayWorksOverMultipleHops(t *testing.T) {
	// Two nodes out of range of each other plus a relay in the middle: only
	// direct neighbours of the broadcaster receive.
	params := sinr.DefaultParams(10)
	d, err := topology.Line(3, 8, params)
	if err != nil {
		t.Fatal(err)
	}
	rec := core.NewRecorder()
	cfg := DefaultConfig(4, 0.1)
	nodes := make([]sim.Node, 3)
	layers := make([]*bcastOnce, 3)
	for i := range nodes {
		n := New(cfg, rec)
		layers[i] = &bcastOnce{}
		if i == 0 {
			layers[i].msg = core.Message{ID: 1, Origin: 0}
		}
		n.SetLayer(layers[i])
		nodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(cfg.AckSlots()+5, nil)
	if len(layers[1].rcvs) != 1 {
		t.Fatalf("relay received %d messages", len(layers[1].rcvs))
	}
	if len(layers[2].rcvs) != 0 {
		t.Fatalf("out-of-range node received %d messages", len(layers[2].rcvs))
	}
	// The progress checker over the strong graph agrees.
	g := d.StrongGraph()
	if g.HasEdge(0, 2) {
		t.Fatal("test precondition violated: nodes 0 and 2 adjacent")
	}
	prog := core.MeasureProgress(rec.Events(), g, g, eng.Slot())
	if prog.Satisfied == 0 {
		t.Fatal("no satisfied progress samples")
	}
}

func TestDecayNodeAgainstChecker(t *testing.T) {
	// Cross-check the decay MAC against MeasureProgress on a small path.
	g := graphs.New(2)
	g.AddEdge(0, 1)
	rec := core.NewRecorder()
	rec.Record(core.Event{Kind: core.EventBcast, Node: 0, Msg: core.Message{ID: 1, Origin: 0}, Slot: 0})
	rec.Record(core.Event{Kind: core.EventRcv, Node: 1, Msg: core.Message{ID: 1, Origin: 0}, Slot: 2})
	rec.Record(core.Event{Kind: core.EventAck, Node: 0, Msg: core.Message{ID: 1, Origin: 0}, Slot: 4})
	prog := core.MeasureProgress(rec.Events(), g, g, 10)
	if prog.MaxLatency != 2 {
		t.Fatalf("max progress latency = %d, want 2", prog.MaxLatency)
	}
}
