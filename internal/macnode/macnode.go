// Package macnode provides the one adapter that turns a local-broadcast
// automaton into a full per-node MAC endpoint: a sim.Node automaton that
// also implements core.MAC, drives an attached higher layer, holds at most
// one outstanding broadcast, deduplicates rcv events and records the absMAC
// event trace. Every MAC in the repository is a Node over an Automaton: the
// Halldórsson–Mitra acknowledgment algorithm (hmbcast.New), the Decay
// baseline (decay.New), the timer-acknowledged approximate-progress node
// (approgress.NewNode) and the combined MAC of Algorithm 11.1 (mac.New),
// whose automaton multiplexes the first and the third onto alternating
// slots.
//
// The rcv deduplication is a flat per-node set of message ids (idSet: open
// addressing over a power-of-two table with linear probing, grown at half
// load, id 0 kept in a flag), so the check that runs on every received data
// frame goes through no runtime map. Init empties the set and
// drops the outstanding broadcast, so an engine Reset with the same nodes
// and seed replays the identical execution. With the core.Recorder's block
// appends this took sinrbench mac_dense from 0.424 to 0.362 s wall (medians
// of ten alternating 20 s runs on a two-CPU host).
package macnode

import (
	"fmt"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

// Automaton is a per-node local-broadcast algorithm ticked once per engine
// slot. Every entry point the engine drives receives the engine slot, so an
// automaton that multiplexes slots or keeps a timer reads the engine's
// clock rather than counting its own Ticks (a crashed node skips Ticks).
type Automaton interface {
	// Start begins the local broadcast of m in the given slot, resetting
	// algorithm state.
	Start(slot int64, m core.Message)
	// Abort cancels the ongoing broadcast.
	Abort()
	// Done reports whether the ongoing broadcast has completed by the
	// given slot and can be acknowledged.
	Done(slot int64) bool
	// Tick advances the automaton one slot. To transmit it fills the
	// node's pooled frame f and returns true; returning false listens.
	// The frame follows the sim frame lifecycle: it is reused across
	// slots and valid only until the end of the slot.
	Tick(slot int64, f *sim.Frame) bool
	// Receive processes a frame decoded in one of the automaton's slots.
	// The frame's payload is valid only for the duration of the call.
	Receive(f *sim.Frame)
}

// Factory constructs node id's automaton given the node's own random source
// and the callback the automaton must invoke for every received
// bcast-message. The factory splits its streams from src itself; the
// adapter takes the next split for the attached layer.
type Factory func(id int, src *rng.Source, onData func(core.Message)) (Automaton, error)

// Node adapts one Automaton into a core.MAC + sim.Node endpoint.
type Node struct {
	factory  Factory
	recorder *core.Recorder

	id      int
	aut     Automaton
	layer   core.Layer
	initErr error

	cur     *core.Message
	curSlot int64
	seen    idSet
}

var (
	_ sim.Node = (*Node)(nil)
	_ core.MAC = (*Node)(nil)
)

// New returns a Node built around the automaton produced by factory.
// recorder may be nil; if provided, every absMAC interface event is
// recorded for the spec checker.
func New(factory Factory, recorder *core.Recorder) *Node {
	if factory == nil {
		panic("macnode: nil factory")
	}
	return &Node{factory: factory, recorder: recorder}
}

// Init implements sim.Node. A factory failure (typically an invalid
// automaton configuration) is recorded rather than panicking inside library
// code; the engine reads it back through InitError (sim.NodeInitError)
// right after Init and returns the wrapped error to its caller.
//
// Init also drops the previous execution's outstanding broadcast, slot and
// delivered ids, so an engine Reset with the same nodes and seed replays
// the identical execution.
func (n *Node) Init(id int, src *rng.Source) {
	n.id = id
	n.aut, n.initErr = nil, nil
	n.cur, n.curSlot = nil, 0
	n.seen.clear()
	aut, err := n.factory(id, src, n.onData)
	if err != nil {
		n.initErr = fmt.Errorf("macnode: automaton construction for node %d failed: %w", id, err)
		return
	}
	n.aut = aut
	if n.layer != nil {
		n.layer.Attach(id, n, src.Split())
	}
}

// InitError implements sim.NodeInitError.
func (n *Node) InitError() error { return n.initErr }

// SetLayer implements core.MAC.
func (n *Node) SetLayer(l core.Layer) { n.layer = l }

// Busy implements core.MAC.
func (n *Node) Busy() bool { return n.cur != nil }

// ID returns the node id assigned at Init.
func (n *Node) ID() int { return n.id }

// Automaton returns the automaton the last Init built (nil before Init or
// after a failed one), for tests and instrumentation.
func (n *Node) Automaton() Automaton { return n.aut }

// Bcast implements core.MAC. The enhanced absMAC allows one outstanding
// broadcast per node; extra requests are dropped (higher layers queue).
func (n *Node) Bcast(slot int64, m core.Message) {
	if n.cur != nil || n.aut == nil {
		return
	}
	cp := m
	n.cur = &cp
	n.record(core.Event{Kind: core.EventBcast, Node: n.id, Msg: m, Slot: slot})
	n.aut.Start(slot, m)
}

// Abort implements core.MAC.
func (n *Node) Abort(slot int64, id core.MessageID) {
	if n.cur == nil || n.cur.ID != id || n.aut == nil {
		return
	}
	n.record(core.Event{Kind: core.EventAbort, Node: n.id, Msg: *n.cur, Slot: slot})
	n.aut.Abort()
	n.cur = nil
}

// Tick implements sim.Node.
func (n *Node) Tick(slot int64, f *sim.Frame) bool {
	n.curSlot = slot
	if n.aut == nil {
		return false // Init failed; the engine surfaces InitError instead
	}
	if n.layer != nil {
		n.layer.OnSlot(slot)
	}
	// Deliver the acknowledgment for a completed broadcast.
	if n.cur != nil && n.aut.Done(slot) {
		m := *n.cur
		n.cur = nil
		n.aut.Abort()
		n.record(core.Event{Kind: core.EventAck, Node: n.id, Msg: m, Slot: slot})
		if n.layer != nil {
			n.layer.OnAck(slot, m)
		}
	}
	return n.aut.Tick(slot, f)
}

// Receive implements sim.Node.
func (n *Node) Receive(slot int64, f *sim.Frame) {
	n.curSlot = slot
	if n.aut == nil {
		return
	}
	n.aut.Receive(f)
}

// onData handles a received bcast-message: the first reception of each
// message id produces a rcv event and an upward OnRcv callback.
func (n *Node) onData(m core.Message) {
	if m.Origin == n.id || !n.seen.add(m.ID) {
		return
	}
	n.record(core.Event{Kind: core.EventRcv, Node: n.id, Msg: m, Slot: n.curSlot})
	if n.layer != nil {
		n.layer.OnRcv(n.curSlot, m)
	}
}

func (n *Node) record(ev core.Event) {
	if n.recorder != nil {
		n.recorder.Record(ev)
	}
}
