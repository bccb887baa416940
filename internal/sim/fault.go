package sim

import (
	"runtime/debug"

	"sinrmac/internal/sinr"
)

// FaultHook is the engine's fault-injection extension point, installed via
// Config.Faults (implemented by internal/fault.Injector). The engine calls
// the hook at fixed points of every slot; with no hook installed the slot
// pipeline is byte-for-byte the plain one, and a hook whose plan injects
// nothing must leave the execution bit-identical to running without one.
//
// Determinism contract: the engine calls every method below on the driving
// goroutine, in slot order and, within a phase, in node order, so a hook
// that derives all decisions from labelled rng streams and its own per-slot
// state produces bit-identical fault sequences at any evaluator worker
// count.
type FaultHook interface {
	// SlotStart is called first in every slot. It returns the inert bitmap
	// (len n, true = node neither ticks nor receives this slot) or nil when
	// no node is inert — the nil fast path keeps the zero-fault tick loop
	// free of per-node checks. The returned slice is only read until the
	// next SlotStart.
	SlotStart(slot int64, n int) []bool
	// PerturbTransmitters may append adversarial transmitter ids (jammers)
	// to the slot's collected transmit set and returns the possibly-grown
	// slice. Injected ids must be valid node ids; injected transmitters
	// participate in slot evaluation exactly like real ones (interference,
	// half-duplex), but the engine does not count them in Stats.Transmissions.
	PerturbTransmitters(slot int64, tx []int) []int
	// FilterReceptions runs after SlotReceptions and before delivery; the
	// hook may scrub entries (Sender = -1) for jammer decodes, inert
	// receivers and dropped frames, and record which deliveries to corrupt.
	// Mutating the slice is safe: evaluators reuse it as scratch and reset
	// every entry on the next slot.
	FilterReceptions(slot int64, receptions []sinr.Reception)
	// DeliverFrame maps a decoded frame just before delivery to node; it
	// returns f unchanged, a substitute (for corruption, a per-receiver
	// scratch copy — the pooled frame is shared by all receivers), or nil
	// to silently drop. Called once per delivery.
	DeliverFrame(slot int64, node int, f *Frame) *Frame
	// NodePanicked reports a recovered panic from the node's Tick or
	// Receive. The engine calls it serially (in node order) before the
	// affected receptions are filtered; the hook is expected to treat the
	// node as crash-stopped from this point on.
	NodePanicked(slot int64, node int, phase string, value interface{}, stack []byte)
	// Reset rewinds the hook to slot zero alongside Engine.Reset.
	Reset()
}

// panicRecord is one recovered node panic awaiting serial hand-off to the
// fault hook.
type panicRecord struct {
	node  int
	phase string
	value interface{}
	stack []byte
}

// recordPanic queues a recovered node panic. The tick and receive phases
// run in node order, so the queue is in node order too.
func (e *Engine) recordPanic(node int, phase string, value interface{}) {
	e.pendingPanics = append(e.pendingPanics, panicRecord{node, phase, value, debug.Stack()})
}

// drainPanics hands the queued panics to the fault hook.
func (e *Engine) drainPanics(slot int64) {
	for _, p := range e.pendingPanics {
		e.faults.NodePanicked(slot, p.node, p.phase, p.value, p.stack)
	}
	e.pendingPanics = e.pendingPanics[:0]
}
