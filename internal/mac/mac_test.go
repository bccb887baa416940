package mac

import (
	"testing"

	"sinrmac/internal/approgress"
	"sinrmac/internal/core"
	"sinrmac/internal/hmbcast"
	"sinrmac/internal/macnode"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

func TestConfigValidate(t *testing.T) {
	cfg := SimConfig(16, 3, core.DefaultParams())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	bad := cfg
	bad.Ack.Lambda = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid ack config accepted")
	}
	bad = cfg
	bad.Prog.Alpha = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid prog config accepted")
	}
	if cfg.AckDeadline() <= 0 || cfg.EpochLen() <= 0 {
		t.Fatal("derived deadlines must be positive")
	}
}

// oneShotLayer broadcasts a single message at a given slot and records
// callbacks.
type oneShotLayer struct {
	core.NopLayer
	mac     core.MAC
	msg     core.Message
	bcastAt int64
	sent    bool
	rcvs    []core.Message
	acks    []core.Message
}

func (l *oneShotLayer) Attach(node int, mac core.MAC, src *rng.Source) { l.mac = mac }

func (l *oneShotLayer) OnSlot(slot int64) {
	if !l.sent && l.msg.ID != 0 && slot >= l.bcastAt {
		l.mac.Bcast(slot, l.msg)
		l.sent = true
	}
}

func (l *oneShotLayer) OnRcv(slot int64, m core.Message) { l.rcvs = append(l.rcvs, m) }
func (l *oneShotLayer) OnAck(slot int64, m core.Message) { l.acks = append(l.acks, m) }

// buildMACScenario wires combined-MAC nodes over a deployment.
func buildMACScenario(t *testing.T, d *topology.Deployment, cfg Config, seed uint64) (*sim.Engine, []*macnode.Node, []*oneShotLayer, *core.Recorder) {
	t.Helper()
	rec := core.NewRecorder()
	simNodes := make([]sim.Node, d.NumNodes())
	macNodes := make([]*macnode.Node, d.NumNodes())
	layers := make([]*oneShotLayer, d.NumNodes())
	for i := range simNodes {
		n := New(cfg, rec)
		layers[i] = &oneShotLayer{}
		n.SetLayer(layers[i])
		macNodes[i] = n
		simNodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, simNodes, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return eng, macNodes, layers, rec
}

func TestCombinedMACAcksAndDelivers(t *testing.T) {
	d, err := topology.Clusters(1, 8, sinr.DefaultParams(20), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig(d.Lambda(), 3, core.DefaultParams())
	eng, _, layers, rec := buildMACScenario(t, d, cfg, 5)
	layers[0].msg = core.Message{ID: 11, Origin: 0, Payload: "combined"}

	eng.Run(cfg.AckDeadline(), func() bool { return len(layers[0].acks) > 0 })
	if len(layers[0].acks) != 1 {
		t.Fatalf("broadcaster acks = %d", len(layers[0].acks))
	}
	// All neighbours got the message before the ack (nice execution).
	rep := core.CheckAcks(rec.Events(), d.StrongGraph())
	if rep.Acked != 1 || rep.Violations != 0 {
		t.Fatalf("ack report = %+v", rep)
	}
	for i := 1; i < len(layers); i++ {
		if len(layers[i].rcvs) == 0 {
			t.Fatalf("node %d never received the broadcast", i)
		}
	}
}

func TestCombinedMACSlotMultiplexing(t *testing.T) {
	// Frames produced on even engine slots must be acknowledgment frames,
	// frames on odd slots approximate-progress frames.
	d, err := topology.Clusters(1, 6, sinr.DefaultParams(20), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig(d.Lambda(), 3, core.DefaultParams())
	eng, _, layers, _ := buildMACScenario(t, d, cfg, 9)
	for i := range layers {
		layers[i].msg = core.Message{ID: core.MessageID(100 + i), Origin: i}
	}
	bad := 0
	eng.AddObserver(sim.ObserverFunc(func(slot int64, tx []int, rec []sinr.Reception) {}))
	// Use a custom observer through engine stepping: inspect frames via the
	// node Tick return values by wrapping Step manually.
	var fr sim.Frame
	for slot := int64(0); slot < 400; slot++ {
		for id := 0; id < d.NumNodes(); id++ {
			if !eng.Node(id).Tick(slot, &fr) {
				continue
			}
			even := slot%2 == 0
			isAck := fr.Kind == hmbcast.FrameKind
			if even != isAck {
				bad++
			}
		}
	}
	if bad != 0 {
		t.Fatalf("%d frames violated the even/odd multiplexing", bad)
	}
}

func TestCombinedMACFrameRouting(t *testing.T) {
	rec := core.NewRecorder()
	n := New(SimConfig(8, 3, core.DefaultParams()), rec)
	layer := &oneShotLayer{}
	n.SetLayer(layer)
	n.Init(1, rng.New(2))
	// A data frame from either half produces exactly one rcv upward.
	m := core.Message{ID: 3, Origin: 0}
	n.Receive(4, &sim.Frame{From: 0, Kind: hmbcast.FrameKind, Msg: m})
	n.Receive(5, &sim.Frame{From: 0, Kind: approgress.FrameData, Msg: m})
	if len(layer.rcvs) != 1 {
		t.Fatalf("rcvs = %d, want 1 (deduplicated across halves)", len(layer.rcvs))
	}
	m2 := core.Message{ID: 4, Origin: 0}
	n.Receive(6, &sim.Frame{From: 0, Kind: approgress.FrameData, Msg: m2})
	if len(layer.rcvs) != 2 {
		t.Fatalf("rcvs = %d, want 2", len(layer.rcvs))
	}
	// Control frames of the progress half do not produce rcv events.
	n.Receive(7, &sim.Frame{From: 0, Kind: approgress.FrameID, Payload: &approgress.IDPayload{Phase: 0, ID: 0}})
	if len(layer.rcvs) != 2 {
		t.Fatal("control frame produced a rcv event")
	}
}

func TestCombinedMACApproxProgressUnderContention(t *testing.T) {
	// A dense cluster of broadcasters around a listener: the listener must
	// receive something within a bounded number of odd-slot epochs, even
	// before any acknowledgment completes.
	d, err := topology.Clusters(1, 20, sinr.DefaultParams(30), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig(d.Lambda(), 3, core.DefaultParams())
	eng, _, layers, rec := buildMACScenario(t, d, cfg, 13)
	for i := 1; i < len(layers); i++ {
		layers[i].msg = core.Message{ID: core.MessageID(200 + i), Origin: i}
	}
	listenerGotIt := func() bool { return len(layers[0].rcvs) > 0 }
	eng.Run(3*cfg.EpochLen(), listenerGotIt)
	if !listenerGotIt() {
		t.Fatalf("listener received nothing within 3 epochs (%d slots)", 3*cfg.EpochLen())
	}
	prog := core.MeasureProgress(rec.Events(), d.StrongGraph(), d.ApproxGraph(), eng.Slot())
	if prog.Satisfied == 0 {
		t.Fatal("no satisfied approximate-progress samples")
	}
}
