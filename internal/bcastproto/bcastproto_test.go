package bcastproto

import (
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/hmbcast"
	"sinrmac/internal/mac"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

// fakeMAC is an in-memory MAC used for unit-testing the layers without a
// simulation: Bcast immediately succeeds and the ack is delivered on the
// next OnSlot via the test.
type fakeMAC struct {
	busy   bool
	bcasts []core.Message
}

func (f *fakeMAC) Bcast(slot int64, m core.Message) {
	f.busy = true
	f.bcasts = append(f.bcasts, m)
}
func (f *fakeMAC) Abort(slot int64, id core.MessageID) { f.busy = false }
func (f *fakeMAC) SetLayer(core.Layer)                 {}
func (f *fakeMAC) Busy() bool                          { return f.busy }

func TestBMMBQueueDiscipline(t *testing.T) {
	m1 := core.Message{ID: 1, Origin: 0}
	m2 := core.Message{ID: 2, Origin: 0}
	b := NewBMMB(m1, m2)
	fm := &fakeMAC{}
	b.Attach(0, fm, rng.New(1))

	if got := b.QueueLen(); got != 2 {
		t.Fatalf("QueueLen = %d", got)
	}
	// Initial messages are delivered locally at slot 0.
	if len(b.Delivered()) != 2 {
		t.Fatalf("initial deliveries = %d", len(b.Delivered()))
	}
	b.OnSlot(1)
	if len(fm.bcasts) != 1 || fm.bcasts[0].ID != 1 {
		t.Fatalf("bcasts = %+v", fm.bcasts)
	}
	// While in flight, no second broadcast is issued.
	b.OnSlot(2)
	if len(fm.bcasts) != 1 {
		t.Fatal("BMMB broadcast while busy")
	}
	// The ack pops the head and the next message goes out.
	fm.busy = false
	b.OnAck(3, m1)
	b.OnSlot(4)
	if len(fm.bcasts) != 2 || fm.bcasts[1].ID != 2 {
		t.Fatalf("bcasts = %+v", fm.bcasts)
	}
	if b.QueueLen() != 1 {
		t.Fatalf("QueueLen after ack = %d", b.QueueLen())
	}
}

func TestBMMBRcvDeliversOnceAndForwards(t *testing.T) {
	b := NewBMMB()
	fm := &fakeMAC{}
	b.Attach(1, fm, rng.New(1))
	m := core.Message{ID: 9, Origin: 0}
	b.OnRcv(5, m)
	b.OnRcv(6, m) // duplicate
	if got := len(b.Delivered()); got != 1 {
		t.Fatalf("deliveries = %d", got)
	}
	if !b.HasDelivered(9) || b.HasDelivered(10) {
		t.Fatal("HasDelivered wrong")
	}
	if b.Delivered()[0].Slot != 5 {
		t.Fatalf("delivery slot = %d", b.Delivered()[0].Slot)
	}
	// The received message is queued for re-broadcast.
	b.OnSlot(7)
	if len(fm.bcasts) != 1 || fm.bcasts[0].ID != 9 {
		t.Fatalf("forwarded bcasts = %+v", fm.bcasts)
	}
}

func TestBMMBDeliveredIsCopy(t *testing.T) {
	b := NewBMMB(core.Message{ID: 1, Origin: 0})
	d := b.Delivered()
	d[0].Slot = 99
	if b.Delivered()[0].Slot != 0 {
		t.Fatal("Delivered exposed internal slice")
	}
}

func TestAllDeliveredAndCompletionSlot(t *testing.T) {
	m1 := core.Message{ID: 1, Origin: 0}
	m2 := core.Message{ID: 2, Origin: 1}
	a := NewBMMB(m1)
	b := NewBMMB(m2)
	ids := MessageIDs([]core.Message{m1, m2})

	if AllDelivered([]*BMMB{a, b}, ids) {
		t.Fatal("AllDelivered true before exchange")
	}
	if _, ok := CompletionSlot([]*BMMB{a, b}, ids); ok {
		t.Fatal("CompletionSlot complete before exchange")
	}
	a.OnRcv(10, m2)
	b.OnRcv(12, m1)
	if !AllDelivered([]*BMMB{a, b}, ids) {
		t.Fatal("AllDelivered false after exchange")
	}
	slot, ok := CompletionSlot([]*BMMB{a, b}, ids)
	if !ok || slot != 12 {
		t.Fatalf("CompletionSlot = %d/%v", slot, ok)
	}
}

func TestMessageIDsSorted(t *testing.T) {
	ids := MessageIDs([]core.Message{{ID: 5}, {ID: 2}, {ID: 9}})
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 5 || ids[2] != 9 {
		t.Fatalf("MessageIDs = %v", ids)
	}
}

func TestRelayLifecycle(t *testing.T) {
	src := core.Message{ID: 7, Origin: 0}
	source := NewRelay(7, &src)
	other := NewRelay(7, nil)
	fmSrc, fmOther := &fakeMAC{}, &fakeMAC{}
	source.Attach(0, fmSrc, rng.New(1))
	other.Attach(1, fmOther, rng.New(2))

	source.OnSlot(0)
	if len(fmSrc.bcasts) != 1 {
		t.Fatal("source did not broadcast")
	}
	if ok, _ := source.Delivered(); !ok {
		t.Fatal("source not marked delivered")
	}
	// The other node does nothing until it hears the message.
	other.OnSlot(0)
	if len(fmOther.bcasts) != 0 {
		t.Fatal("non-source relay broadcast before reception")
	}
	other.OnRcv(42, src)
	other.OnRcv(50, src) // duplicate keeps the first slot
	if ok, slot := other.Delivered(); !ok || slot != 42 {
		t.Fatalf("Delivered = %v/%d", ok, slot)
	}
	other.OnSlot(43)
	if len(fmOther.bcasts) != 1 {
		t.Fatal("relay did not start broadcasting after reception")
	}
	// Irrelevant messages are ignored.
	third := NewRelay(7, nil)
	third.Attach(2, &fakeMAC{}, rng.New(3))
	third.OnRcv(1, core.Message{ID: 99, Origin: 5})
	if ok, _ := third.Delivered(); ok {
		t.Fatal("relay accepted an unrelated message")
	}
	slot, ok := RelayCompletionSlot([]*Relay{source, other})
	if !ok || slot != 42 {
		t.Fatalf("RelayCompletionSlot = %d/%v", slot, ok)
	}
	if _, ok := RelayCompletionSlot([]*Relay{source, other, third}); ok {
		t.Fatal("RelayCompletionSlot complete with an undelivered node")
	}
}

// Integration: BSMB over the acknowledgment-only MAC floods a line network.
func TestBSMBOverAckMACLine(t *testing.T) {
	params := sinr.DefaultParams(10)
	d, err := topology.Line(6, 4, params)
	if err != nil {
		t.Fatal(err)
	}
	rec := core.NewRecorder()
	cfg := hmbcast.SimConfig(d.Lambda(), 0.1)

	msg := core.Message{ID: 1, Origin: 0, Payload: "smb"}
	layers := make([]*BMMB, d.NumNodes())
	nodes := make([]sim.Node, d.NumNodes())
	for i := range nodes {
		if i == 0 {
			layers[i] = NewBSMB(msg)
		} else {
			layers[i] = NewBSMB()
		}
		n := hmbcast.New(cfg, rec)
		n.SetLayer(layers[i])
		nodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ids := []core.MessageID{1}
	deadline := int64(d.NumNodes()+2) * cfg.MaxSlots()
	eng.Run(deadline, func() bool { return AllDelivered(layers, ids) })
	if !AllDelivered(layers, ids) {
		t.Fatalf("BSMB did not complete within %d slots", deadline)
	}
	if slot, ok := CompletionSlot(layers, ids); !ok || slot <= 0 {
		t.Fatalf("CompletionSlot = %d/%v", slot, ok)
	}
}

// Integration: BMMB over the combined MAC broadcasts two messages from
// different origins across a small cluster chain.
func TestBMMBOverCombinedMAC(t *testing.T) {
	d, err := topology.Clusters(2, 5, sinr.DefaultParams(20), rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	rec := core.NewRecorder()
	cfg := mac.SimConfig(d.Lambda(), 3, core.DefaultParams())

	msgs := []core.Message{
		{ID: 101, Origin: 0, Payload: "a"},
		{ID: 102, Origin: d.NumNodes() - 1, Payload: "b"},
	}
	layers := make([]*BMMB, d.NumNodes())
	nodes := make([]sim.Node, d.NumNodes())
	for i := range nodes {
		var initial []core.Message
		for _, m := range msgs {
			if m.Origin == i {
				initial = append(initial, m)
			}
		}
		layers[i] = NewBMMB(initial...)
		n := mac.New(cfg, rec)
		n.SetLayer(layers[i])
		nodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	ids := MessageIDs(msgs)
	deadline := 20 * cfg.AckDeadline()
	eng.Run(deadline, func() bool { return AllDelivered(layers, ids) })
	if !AllDelivered(layers, ids) {
		t.Fatalf("BMMB did not complete within %d slots", deadline)
	}
}
