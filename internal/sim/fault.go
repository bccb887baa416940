package sim

import (
	"runtime/debug"
	"sort"

	"sinrmac/internal/sinr"
)

// FaultHook is the engine's fault-injection extension point, installed via
// Config.Faults (implemented by internal/fault.Injector). The engine calls
// the hook at fixed points of every slot; with no hook installed the slot
// pipeline is byte-for-byte the plain one, and a hook whose plan injects
// nothing must leave the execution bit-identical to running without one.
//
// Determinism contract: every method below that draws randomness is called
// from a serial section of the slot (SlotStart, PerturbTransmitters and
// FilterReceptions run on the driving goroutine, in slot order, on both
// drivers), so a hook that derives all decisions from labelled rng streams
// and its own per-slot state produces bit-identical fault sequences at any
// worker count. DeliverFrame may be called concurrently for distinct
// receiving nodes and must not draw from shared streams.
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
	// to silently drop. Called once per delivery, possibly concurrently for
	// distinct nodes.
	DeliverFrame(slot int64, node int, f *Frame) *Frame
	// NodePanicked reports a recovered panic from the node's Tick or
	// Receive. The engine calls it serially (in node order) before the
	// affected receptions are filtered; the hook is expected to treat the
	// node as crash-stopped from this point on.
	NodePanicked(slot int64, node int, phase string, value interface{}, stack []byte)
	// EpochApplied is called after Engine.ApplyEpoch commits a churn epoch,
	// so per-node fault state follows the swap-remove relabels.
	EpochApplied(delta *sinr.EpochDelta)
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

// recordPanic queues a recovered node panic; called from worker goroutines.
func (e *Engine) recordPanic(node int, phase string, value interface{}) {
	stack := debug.Stack()
	e.panicMu.Lock()
	e.pendingPanics = append(e.pendingPanics, panicRecord{node, phase, value, stack})
	e.panicMu.Unlock()
}

// drainPanics hands queued panics to the fault hook in node order (the
// queue order depends on worker scheduling; sorting restores determinism).
func (e *Engine) drainPanics(slot int64) {
	e.panicMu.Lock()
	pending := e.pendingPanics
	e.pendingPanics = e.pendingPanics[:0]
	e.panicMu.Unlock()
	if len(pending) == 0 {
		return
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].node < pending[j].node })
	for _, p := range pending {
		e.faults.NodePanicked(slot, p.node, p.phase, p.value, p.stack)
	}
}

// tickChunkFaults is the parallel tick phase under a fault hook: inert
// nodes do not tick, and a panicking Tick is recovered and converted into a
// crash fault instead of killing the engine. The panic recovery costs one
// deferred call per chunk, not per node, so the zero-fault plan stays near
// the plain loop's cost.
func (e *Engine) tickChunkFaults(lo, hi, _ int) {
	for i := lo; i < hi; {
		i = e.tickRunFaults(i, hi)
	}
}

// tickRunFaults ticks nodes [lo, hi) until one panics; on a panic it marks
// the node non-transmitting, records the panic and returns the index to
// resume from.
func (e *Engine) tickRunFaults(lo, hi int) (next int) {
	slot := e.tickSlot
	i := lo
	defer func() {
		if r := recover(); r != nil {
			e.sent[i] = false
			e.recordPanic(i, "tick", r)
			next = i + 1
		}
	}()
	if inert := e.inert; inert != nil {
		for ; i < hi; i++ {
			if inert[i] {
				e.sent[i] = false
				continue
			}
			e.sent[i] = e.nodes[i].Tick(slot, &e.frames[i])
		}
	} else {
		for ; i < hi; i++ {
			e.sent[i] = e.nodes[i].Tick(slot, &e.frames[i])
		}
	}
	return hi
}

// recvChunkFaults is the receive phase under a fault hook: every delivery
// is routed through DeliverFrame, and a panicking Receive is recovered and
// recorded. Inert receivers were already scrubbed by FilterReceptions.
func (e *Engine) recvChunkFaults(lo, hi, worker int) {
	for i := lo; i < hi; {
		i = e.recvRunFaults(i, hi, worker)
	}
}

// recvRunFaults delivers to receivers [lo, hi) until one panics, counting
// deliveries into the worker's subtotal incrementally.
func (e *Engine) recvRunFaults(lo, hi, worker int) (next int) {
	slot, rec := e.rxSlot, e.rxRec
	i := lo
	defer func() {
		if r := recover(); r != nil {
			e.recordPanic(i, "receive", r)
			next = i + 1
		}
	}()
	for ; i < hi; i++ {
		if s := rec[i].Sender; s >= 0 {
			if f := e.faults.DeliverFrame(slot, i, &e.frames[s]); f != nil {
				e.nodes[i].Receive(slot, f)
				e.rxCounts[worker]++
			}
		}
	}
	return hi
}
