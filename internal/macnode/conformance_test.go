package macnode_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sinrmac/internal/approgress"
	"sinrmac/internal/core"
	"sinrmac/internal/decay"
	"sinrmac/internal/hmbcast"
	"sinrmac/internal/mac"
	"sinrmac/internal/macnode"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

// macRow is one of the repository's MAC constructors.
type macRow struct {
	name string
	// build returns a node with a valid configuration for d.
	build func(d *topology.Deployment, rec *core.Recorder) *macnode.Node
	// data lists the frame kinds that carry bcast-messages.
	data []sim.FrameKind
}

var macRows = []macRow{
	{
		name: "hmbcast",
		build: func(d *topology.Deployment, rec *core.Recorder) *macnode.Node {
			return hmbcast.New(hmbcast.SimConfig(d.Lambda(), 0.1), rec)
		},
		data: []sim.FrameKind{hmbcast.FrameKind},
	},
	{
		name: "decay",
		build: func(d *topology.Deployment, rec *core.Recorder) *macnode.Node {
			return decay.New(decay.DefaultConfig(float64(d.StrongGraph().MaxDegree()+1), 0.1), rec)
		},
		data: []sim.FrameKind{decay.FrameKind},
	},
	{
		name: "approgress",
		build: func(d *topology.Deployment, rec *core.Recorder) *macnode.Node {
			cfg := approgress.SimConfig(d.Lambda(), 0.1, d.Params.Alpha)
			return approgress.NewNode(cfg, 2*cfg.EpochLen(), rec)
		},
		data: []sim.FrameKind{approgress.FrameData},
	},
	{
		name: "mac",
		build: func(d *topology.Deployment, rec *core.Recorder) *macnode.Node {
			return mac.New(mac.SimConfig(d.Lambda(), d.Params.Alpha, core.DefaultParams()), rec)
		},
		data: []sim.FrameKind{hmbcast.FrameKind, approgress.FrameData},
	},
}

// contractLayer broadcasts one message at slot bcastAt, immediately tries
// a second one (which the MAC must drop), and, if abortAfter > 0, aborts
// its message that many slots later, after an abort of the dropped id
// (which must be a no-op).
type contractLayer struct {
	t          *testing.T
	mac        core.MAC
	msg        core.Message
	bcastAt    int64
	abortAfter int64

	sent, aborted bool
	rcvs, acks    int
}

func (l *contractLayer) Attach(node int, m core.MAC, src *rng.Source) { l.mac = m }

func (l *contractLayer) OnSlot(slot int64) {
	switch {
	case !l.sent && slot >= l.bcastAt:
		if l.mac.Busy() {
			l.t.Errorf("node %d busy before its first bcast in slot %d", l.msg.Origin, slot)
		}
		l.sent = true
		l.mac.Bcast(slot, l.msg)
		if !l.mac.Busy() {
			l.t.Errorf("node %d not busy after bcast in slot %d", l.msg.Origin, slot)
		}
		l.mac.Bcast(slot, core.Message{ID: l.msg.ID + 1000, Origin: l.msg.Origin})
	case l.sent && !l.aborted && l.abortAfter > 0 && slot >= l.bcastAt+l.abortAfter:
		l.aborted = true
		l.mac.Abort(slot, l.msg.ID+1000)
		if !l.mac.Busy() {
			l.t.Errorf("node %d: abort of an unknown id in slot %d cleared its bcast", l.msg.Origin, slot)
		}
		l.mac.Abort(slot, l.msg.ID)
		if l.mac.Busy() {
			l.t.Errorf("node %d still busy after abort in slot %d", l.msg.Origin, slot)
		}
	}
}

func (l *contractLayer) OnRcv(slot int64, m core.Message) { l.rcvs++ }
func (l *contractLayer) OnAck(slot int64, m core.Message) { l.acks++ }

// checkContract checks the absMAC event trace: at most one outstanding
// bcast per node, every ack and abort closing that node's outstanding bcast
// (so an ack follows its bcast and never follows an abort), no rcv of a
// node's own message and at most one rcv per node and message id.
func checkContract(events []core.Event) []string {
	var bad []string
	outstanding := map[int]core.MessageID{}
	aborted := map[core.MessageID]bool{}
	rcvd := map[[2]int64]bool{}
	for _, ev := range events {
		cur, busy := outstanding[ev.Node]
		switch ev.Kind {
		case core.EventBcast:
			if busy {
				bad = append(bad, fmt.Sprintf("node %d: bcast(%d) in slot %d while %d is outstanding", ev.Node, ev.Msg.ID, ev.Slot, cur))
			}
			outstanding[ev.Node] = ev.Msg.ID
		case core.EventAck, core.EventAbort:
			if aborted[ev.Msg.ID] {
				bad = append(bad, fmt.Sprintf("node %d: %v(%d) in slot %d after its abort", ev.Node, ev.Kind, ev.Msg.ID, ev.Slot))
			}
			if !busy || cur != ev.Msg.ID {
				bad = append(bad, fmt.Sprintf("node %d: %v(%d) in slot %d without its bcast outstanding", ev.Node, ev.Kind, ev.Msg.ID, ev.Slot))
			}
			if ev.Kind == core.EventAbort {
				aborted[ev.Msg.ID] = true
			}
			delete(outstanding, ev.Node)
		case core.EventRcv:
			key := [2]int64{int64(ev.Node), int64(ev.Msg.ID)}
			if ev.Msg.Origin == ev.Node {
				bad = append(bad, fmt.Sprintf("node %d: rcv of its own message %d", ev.Node, ev.Msg.ID))
			}
			if rcvd[key] {
				bad = append(bad, fmt.Sprintf("node %d: second rcv of message %d in slot %d", ev.Node, ev.Msg.ID, ev.Slot))
			}
			rcvd[key] = true
		}
	}
	return bad
}

// TestMACConformance runs every MAC constructor on a six-node cluster in
// which every node broadcasts once, one node aborts, and the absMAC
// contract is checked on the recorded trace and the upward callbacks.
func TestMACConformance(t *testing.T) {
	d, err := topology.Clusters(1, 6, sinr.DefaultParams(20), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	const aborter = 1
	for _, row := range macRows {
		t.Run(row.name, func(t *testing.T) {
			rec := core.NewRecorder()
			nodes := make([]sim.Node, d.NumNodes())
			layers := make([]*contractLayer, d.NumNodes())
			for i := range nodes {
				layers[i] = &contractLayer{t: t, msg: core.Message{ID: core.MessageID(100 + i), Origin: i}, bcastAt: int64(i)}
				if i == aborter {
					layers[i].abortAfter = 3
				}
				n := row.build(d, rec)
				n.SetLayer(layers[i])
				nodes[i] = n
			}
			eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			allAcked := func() bool {
				for i, l := range layers {
					if i != aborter && l.acks == 0 {
						return false
					}
				}
				return true
			}
			eng.Run(200_000, allAcked)
			if !allAcked() {
				t.Fatalf("not every broadcast acknowledged within %d slots", eng.Slot())
			}
			// As long again: an ack that abort failed to suppress shows up.
			eng.Run(eng.Slot(), nil)

			events := rec.Events()
			for _, v := range checkContract(events) {
				t.Error(v)
			}
			count := map[core.EventKind]int{}
			perNode := map[[2]int]int{}
			for _, ev := range events {
				count[ev.Kind]++
				perNode[[2]int{ev.Node, int(ev.Kind)}]++
			}
			n := d.NumNodes()
			if count[core.EventBcast] != n || count[core.EventAck] != n-1 || count[core.EventAbort] != 1 || count[core.EventRcv] == 0 {
				t.Errorf("trace has %d bcast, %d ack, %d abort, %d rcv; want %d, %d, 1 and some",
					count[core.EventBcast], count[core.EventAck], count[core.EventAbort], count[core.EventRcv], n, n-1)
			}
			for i, l := range layers {
				if l.acks != perNode[[2]int{i, int(core.EventAck)}] || l.rcvs != perNode[[2]int{i, int(core.EventRcv)}] {
					t.Errorf("node %d: layer saw %d acks and %d rcvs, trace has %d and %d", i, l.acks, l.rcvs,
						perNode[[2]int{i, int(core.EventAck)}], perNode[[2]int{i, int(core.EventRcv)}])
				}
			}
		})
	}
}

// TestMACRcvDeduplication feeds a fresh node the same bcast-message three
// times on every data frame kind its automaton owns, then one of its own
// messages: exactly one rcv reaches the recorder and the layer.
func TestMACRcvDeduplication(t *testing.T) {
	d, err := topology.Clusters(1, 6, sinr.DefaultParams(20), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range macRows {
		t.Run(row.name, func(t *testing.T) {
			rec := core.NewRecorder()
			n := row.build(d, rec)
			layer := &contractLayer{t: t}
			n.SetLayer(layer)
			n.Init(1, rng.New(8))
			m := core.Message{ID: 7, Origin: 0}
			slot := int64(0)
			for _, kind := range row.data {
				for range 3 {
					n.Receive(slot, &sim.Frame{From: 0, Kind: kind, Msg: m})
					slot++
				}
				n.Receive(slot, &sim.Frame{From: 2, Kind: kind, Msg: core.Message{ID: 8, Origin: 1}})
			}
			rcvs := rec.EventsOfKind(core.EventRcv)
			if len(rcvs) != 1 || rcvs[0].Msg.ID != 7 || rcvs[0].Slot != 0 {
				t.Fatalf("rcv events = %+v, want one rcv(7) in slot 0", rcvs)
			}
			if layer.rcvs != 1 {
				t.Fatalf("OnRcv called %d times, want 1", layer.rcvs)
			}
		})
	}
}

// TestInvalidConfigFailsEngine checks that every MAC constructor given an
// invalid configuration makes sim.NewEngine return an error naming the
// node instead of panicking, that the failed node is inert, and that the
// valid node beside it records no error.
func TestInvalidConfigFailsEngine(t *testing.T) {
	d, err := topology.Line(2, 2, sinr.DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	badAck := mac.SimConfig(16, 3, core.DefaultParams())
	badAck.Ack.Lambda = 0
	badProg := mac.SimConfig(16, 3, core.DefaultParams())
	badProg.Prog.Alpha = 1
	for _, tc := range []struct {
		name, cause string
		node        func() *macnode.Node
	}{
		{"hmbcast", "hmbcast", func() *macnode.Node { return hmbcast.New(hmbcast.Config{EpsAck: 0.1}, nil) }},
		{"decay", "decay", func() *macnode.Node { return decay.New(decay.Config{EpsAck: 0.1}, nil) }},
		{"approgress", "approgress", func() *macnode.Node { return approgress.NewNode(approgress.Config{EpsApprog: 0.1, Alpha: 3}, 10, nil) }},
		{"mac/ack", "hmbcast", func() *macnode.Node { return mac.New(badAck, nil) }},
		{"mac/prog", "approgress", func() *macnode.Node { return mac.New(badProg, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			good, bad := hmbcast.New(hmbcast.SimConfig(4, 0.1), nil), tc.node()
			_, err := sim.NewEngine(ch, []sim.Node{good, bad}, sim.Config{Seed: 1})
			if err == nil {
				t.Fatal("NewEngine accepted a node with an invalid configuration")
			}
			if !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), tc.cause+":") {
				t.Fatalf("NewEngine error = %q, want it to name node 1 and %s", err, tc.cause)
			}
			if bad.InitError() == nil || bad.Automaton() != nil {
				t.Fatal("failed node reports no InitError or kept an automaton")
			}
			if err := good.InitError(); err != nil {
				t.Fatalf("valid node reports InitError %v", err)
			}
			var f sim.Frame
			if bad.Tick(0, &f) {
				t.Fatal("failed node transmitted")
			}
			bad.Receive(1, &sim.Frame{Kind: hmbcast.FrameKind, Msg: core.Message{ID: 1, Origin: 0}})
			bad.Bcast(1, core.Message{ID: 2, Origin: 1})
			if bad.Busy() {
				t.Fatal("failed node accepted a broadcast")
			}
		})
	}
}

// loopClient issues a fresh Bcast in the first slot after its previous one
// acked (a closed loop); Attach restarts its sequence.
type loopClient struct {
	core.NopLayer
	node int
	mac  core.MAC
	seq  uint64
}

func (c *loopClient) Attach(node int, m core.MAC, _ *rng.Source) { c.node, c.mac, c.seq = node, m, 0 }

func (c *loopClient) OnSlot(slot int64) {
	if !c.mac.Busy() {
		c.seq++
		c.mac.Bcast(slot, core.Message{ID: core.MessageID(uint64(c.node)<<32 | c.seq), Origin: c.node})
	}
}

// TestResetReplaysExecution runs every MAC constructor on two 16-node
// clusters under closed-loop clients, Resets the engine with the same node
// objects and seed, and requires the second execution to record the
// identical trace: a node must not carry its outstanding broadcast or its
// delivered ids into the next execution.
func TestResetReplaysExecution(t *testing.T) {
	d, err := topology.Clusters(2, 16, sinr.DefaultParams(30), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	const seed, slots = 7, 300
	for _, row := range macRows {
		t.Run(row.name, func(t *testing.T) {
			rec := core.NewRecorder()
			nodes := make([]sim.Node, d.NumNodes())
			for i := range nodes {
				n := row.build(d, rec)
				n.SetLayer(&loopClient{})
				nodes[i] = n
			}
			eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			eng.Run(slots, nil)
			first := rec.Events()
			if len(first) == 0 {
				t.Fatal("first execution recorded no events")
			}
			rec.Reset()
			if err := eng.Reset(nodes, seed); err != nil {
				t.Fatal(err)
			}
			eng.Run(slots, nil)
			if second := rec.Events(); !reflect.DeepEqual(first, second) {
				t.Fatalf("after Reset the execution recorded %d events, the first %d; first difference at %d",
					len(second), len(first), firstDiff(first, second))
			}
		})
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []core.Event) int {
	i := 0
	for i < len(a) && i < len(b) && reflect.DeepEqual(a[i], b[i]) {
		i++
	}
	return i
}
