package macnode

import (
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
)

// testChannel returns a two-node channel on which a lone transmission from
// node 0 always decodes at node 1.
func testChannel(t *testing.T) *sinr.Channel {
	t.Helper()
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// dataKind is the frame kind the fake automaton transmits.
var dataKind = sim.RegisterFrameKind("test.data")

// fakeAutomaton is a scriptable Automaton that records every call.
type fakeAutomaton struct {
	onData func(core.Message)

	started    []core.Message
	startSlots []int64
	aborts     int
	done       bool
	doneSlots  []int64
	tickSlots  []int64
	frame      *sim.Frame // copied into the pooled frame by Tick, nil listens
	rcvd       []*sim.Frame
}

func (a *fakeAutomaton) Start(slot int64, m core.Message) {
	a.started = append(a.started, m)
	a.startSlots = append(a.startSlots, slot)
}
func (a *fakeAutomaton) Abort() { a.aborts++; a.done = false }
func (a *fakeAutomaton) Done(slot int64) bool {
	a.doneSlots = append(a.doneSlots, slot)
	return a.done
}
func (a *fakeAutomaton) Tick(slot int64, f *sim.Frame) bool {
	a.tickSlots = append(a.tickSlots, slot)
	if a.frame == nil {
		return false
	}
	f.Kind = a.frame.Kind
	f.Msg = a.frame.Msg
	f.Payload = a.frame.Payload
	return true
}
func (a *fakeAutomaton) Receive(f *sim.Frame) { a.rcvd = append(a.rcvd, f) }

// deliver simulates the automaton decoding a data message: it invokes the
// onData callback the factory captured, as real automatons do.
func (a *fakeAutomaton) deliver(m core.Message) { a.onData(m) }

// recordingLayer records the upward callbacks a MAC issues.
type recordingLayer struct {
	attached int
	mac      core.MAC
	slots    []int64
	rcvs     []core.Message
	acks     []core.Message
}

func (l *recordingLayer) Attach(node int, mac core.MAC, src *rng.Source) { l.attached++; l.mac = mac }
func (l *recordingLayer) OnSlot(slot int64)                              { l.slots = append(l.slots, slot) }
func (l *recordingLayer) OnRcv(slot int64, m core.Message)               { l.rcvs = append(l.rcvs, m) }
func (l *recordingLayer) OnAck(slot int64, m core.Message)               { l.acks = append(l.acks, m) }

// newTestNode builds an initialised Node around a fakeAutomaton.
func newTestNode(t *testing.T, id int, rec *core.Recorder) (*Node, *fakeAutomaton, *recordingLayer) {
	t.Helper()
	aut := &fakeAutomaton{}
	layer := &recordingLayer{}
	n := New(func(_ int, src *rng.Source, onData func(core.Message)) (Automaton, error) {
		if src == nil {
			t.Fatal("factory got a nil random source")
		}
		aut.onData = onData
		return aut, nil
	}, rec)
	n.SetLayer(layer)
	n.Init(id, rng.New(42))
	return n, aut, layer
}

func TestNewNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil, nil)
}

func TestInitAttachesLayer(t *testing.T) {
	n, _, layer := newTestNode(t, 3, nil)
	if layer.attached != 1 {
		t.Fatalf("layer attached %d times, want 1", layer.attached)
	}
	if layer.mac != core.MAC(n) {
		t.Fatal("layer attached to a different MAC endpoint")
	}
	if n.ID() != 3 {
		t.Fatalf("ID = %d, want 3", n.ID())
	}
}

// TestFactoryAndSlotPlumbing checks what the adapter hands its automaton:
// the factory gets the node id and the node's own source (it does its own
// splits), and Start, Done and Tick see the engine slot they were called in.
func TestFactoryAndSlotPlumbing(t *testing.T) {
	src := rng.New(42)
	var gotID int
	var gotSrc *rng.Source
	aut := &fakeAutomaton{}
	n := New(func(id int, s *rng.Source, onData func(core.Message)) (Automaton, error) {
		gotID, gotSrc = id, s
		aut.onData = onData
		return aut, nil
	}, nil)
	n.Init(7, src)
	if gotID != 7 || gotSrc != src {
		t.Fatalf("factory got (id %d, src %p), want (7, the node's source %p)", gotID, gotSrc, src)
	}
	if n.Automaton() != Automaton(aut) {
		t.Fatal("Automaton() does not return the factory's automaton")
	}
	n.Bcast(10, core.Message{ID: 1, Origin: 7})
	var fr sim.Frame
	n.Tick(11, &fr)
	n.Tick(13, &fr) // a crashed node skips slot 12
	if len(aut.startSlots) != 1 || aut.startSlots[0] != 10 {
		t.Fatalf("Start slots = %v, want [10]", aut.startSlots)
	}
	if len(aut.doneSlots) != 2 || aut.doneSlots[0] != 11 || aut.doneSlots[1] != 13 {
		t.Fatalf("Done slots = %v, want [11 13]", aut.doneSlots)
	}
	if len(aut.tickSlots) != 2 || aut.tickSlots[0] != 11 || aut.tickSlots[1] != 13 {
		t.Fatalf("Tick slots = %v, want [11 13]", aut.tickSlots)
	}
}

func TestBcastStateMachine(t *testing.T) {
	rec := core.NewRecorder()
	n, aut, _ := newTestNode(t, 0, rec)
	if n.Busy() {
		t.Fatal("fresh node is busy")
	}
	m := core.Message{ID: 7, Origin: 0}
	n.Bcast(5, m)
	if !n.Busy() {
		t.Fatal("node not busy after Bcast")
	}
	if len(aut.started) != 1 || aut.started[0].ID != 7 {
		t.Fatalf("automaton started with %v, want message 7", aut.started)
	}
	// The enhanced absMAC allows one outstanding broadcast: extra requests
	// are dropped without touching the automaton.
	n.Bcast(6, core.Message{ID: 8, Origin: 0})
	if len(aut.started) != 1 {
		t.Fatal("second Bcast reached the automaton while busy")
	}
	events := rec.Events()
	if len(events) != 1 || events[0].Kind != core.EventBcast || events[0].Msg.ID != 7 || events[0].Slot != 5 {
		t.Fatalf("recorded events = %+v, want one bcast(7)@5", events)
	}
}

func TestAckDeliveredOnTickAfterDone(t *testing.T) {
	rec := core.NewRecorder()
	n, aut, layer := newTestNode(t, 0, rec)
	m := core.Message{ID: 11, Origin: 0}
	n.Bcast(0, m)
	var fr sim.Frame
	n.Tick(1, &fr)
	if len(layer.acks) != 0 {
		t.Fatal("ack before the automaton finished")
	}
	aut.done = true
	n.Tick(2, &fr)
	if len(layer.acks) != 1 || layer.acks[0].ID != 11 {
		t.Fatalf("acks = %v, want message 11", layer.acks)
	}
	if n.Busy() {
		t.Fatal("node still busy after ack")
	}
	if aut.aborts != 1 {
		t.Fatalf("automaton reset %d times on ack, want 1", aut.aborts)
	}
	// Layer saw OnSlot for both ticks, in order, before the ack.
	if len(layer.slots) != 2 || layer.slots[0] != 1 || layer.slots[1] != 2 {
		t.Fatalf("layer slots = %v", layer.slots)
	}
	kinds := []core.EventKind{}
	for _, ev := range rec.Events() {
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) != 2 || kinds[0] != core.EventBcast || kinds[1] != core.EventAck {
		t.Fatalf("event kinds = %v, want [bcast ack]", kinds)
	}
	// After the ack the node accepts a fresh broadcast.
	n.Bcast(3, core.Message{ID: 12, Origin: 0})
	if !n.Busy() || len(aut.started) != 2 {
		t.Fatal("node did not accept a new broadcast after ack")
	}
}

func TestAbort(t *testing.T) {
	rec := core.NewRecorder()
	n, aut, _ := newTestNode(t, 0, rec)
	n.Bcast(0, core.Message{ID: 5, Origin: 0})
	// Aborting a different message id is a no-op.
	n.Abort(1, 99)
	if !n.Busy() || aut.aborts != 0 {
		t.Fatal("mismatched abort changed state")
	}
	n.Abort(2, 5)
	if n.Busy() {
		t.Fatal("node busy after abort")
	}
	if aut.aborts != 1 {
		t.Fatalf("automaton aborted %d times, want 1", aut.aborts)
	}
	// Aborting with nothing outstanding is a no-op.
	n.Abort(3, 5)
	if aut.aborts != 1 {
		t.Fatal("abort without an outstanding broadcast reached the automaton")
	}
	events := rec.Events()
	if len(events) != 2 || events[1].Kind != core.EventAbort || events[1].Slot != 2 {
		t.Fatalf("events = %+v, want [bcast abort@2]", events)
	}
}

func TestTickForwardsFrames(t *testing.T) {
	n, aut, _ := newTestNode(t, 0, nil)
	var fr sim.Frame
	if n.Tick(0, &fr) {
		t.Fatal("idle automaton transmitted")
	}
	aut.frame = &sim.Frame{Kind: dataKind}
	if !n.Tick(1, &fr) || fr.Kind != dataKind {
		t.Fatalf("Tick did not fill the pooled frame with the automaton's transmission (frame %+v)", fr)
	}
	in := &sim.Frame{Kind: dataKind, From: 9}
	n.Receive(1, in)
	if len(aut.rcvd) != 1 || aut.rcvd[0] != in {
		t.Fatal("Receive not forwarded to the automaton")
	}
}

func TestRcvDeduplication(t *testing.T) {
	rec := core.NewRecorder()
	n, aut, layer := newTestNode(t, 0, rec)
	var fr sim.Frame
	n.Tick(4, &fr) // establish the current slot for event timestamps
	m := core.Message{ID: 20, Origin: 1}
	aut.deliver(m)
	aut.deliver(m) // duplicate delivery of the same message id
	if len(layer.rcvs) != 1 || layer.rcvs[0].ID != 20 {
		t.Fatalf("layer rcvs = %v, want exactly one rcv of 20", layer.rcvs)
	}
	// A message originated by this node is never delivered upward.
	aut.deliver(core.Message{ID: 21, Origin: 0})
	if len(layer.rcvs) != 1 {
		t.Fatal("own-origin message delivered upward")
	}
	// A different message id is delivered.
	aut.deliver(core.Message{ID: 22, Origin: 2})
	if len(layer.rcvs) != 2 {
		t.Fatal("second distinct message not delivered")
	}
	events := rec.Events()
	if len(events) != 2 || events[0].Kind != core.EventRcv || events[0].Slot != 4 {
		t.Fatalf("events = %+v, want two rcv events stamped with slot 4", events)
	}
}

// TestNodeWithoutLayerOrRecorder checks that both attachments are optional.
func TestNodeWithoutLayerOrRecorder(t *testing.T) {
	aut := &fakeAutomaton{}
	n := New(func(_ int, src *rng.Source, onData func(core.Message)) (Automaton, error) {
		aut.onData = onData
		return aut, nil
	}, nil)
	n.Init(0, rng.New(1))
	n.Bcast(0, core.Message{ID: 1, Origin: 0})
	aut.done = true
	var fr sim.Frame
	n.Tick(1, &fr) // ack with no layer must not panic
	if n.Busy() {
		t.Fatal("node busy after layerless ack")
	}
	aut.deliver(core.Message{ID: 2, Origin: 1}) // rcv with no layer
}

// TestNodeDrivenByEngine exercises the adapter end-to-end under the real
// simulation engine and the core.MAC contract: one broadcaster, one
// listener, a trivially decodable channel.
func TestNodeDrivenByEngine(t *testing.T) {
	rec := core.NewRecorder()
	frames := 0
	mkNode := func(transmit bool) *Node {
		return New(func(_ int, src *rng.Source, onData func(core.Message)) (Automaton, error) {
			a := &fakeAutomaton{}
			a.onData = onData
			if transmit {
				// Broadcast automaton: transmit a data frame every slot
				// carrying the message; finish after three slots.
				a.frame = &sim.Frame{Kind: dataKind, Msg: core.Message{ID: 1, Origin: 0}}
			}
			frames++
			return a, nil
		}, rec)
	}
	tx := mkNode(true)
	rxLayer := &recordingLayer{}
	rx := mkNode(false)
	rx.SetLayer(rxLayer)

	ch := testChannel(t)
	eng, err := sim.NewEngine(ch, []sim.Node{tx, rx}, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tx.Bcast(0, core.Message{ID: 1, Origin: 0})
	eng.Run(3, nil)
	// The receiving adapter's automaton saw the transmitted frames.
	rxAut := eng.Node(1).(*Node).aut.(*fakeAutomaton)
	if len(rxAut.rcvd) != 3 {
		t.Fatalf("receiver automaton decoded %d frames, want 3", len(rxAut.rcvd))
	}
	if frames != 2 {
		t.Fatalf("factory ran %d times, want 2", frames)
	}
}
