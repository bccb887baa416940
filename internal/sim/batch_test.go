package sim

// Tests for multi-slot execution: a batch is the slots one Run call
// executes. Per-slot observer/hook ordering across Run-call boundaries,
// stop polls inside a batch, the re-entry guards and the allocation-free
// steady state. Run's bit-identity to the Step loop is one of the engine
// oracle's axes (oracle_test.go).

import (
	"fmt"
	"testing"

	"sinrmac/internal/sinr"
)

// crashJamHook is a minimal deterministic crash+jam FaultHook, hand-rolled
// because internal/fault imports this package. Node 0 crash-stops at
// crashSlot (inert, receptions scrubbed), and the highest-id node jams
// every third slot (injected transmitter, its decodes scrubbed).
type crashJamHook struct {
	crashSlot int64
	n         int     // deployment size, tracked per slot
	inert     []bool  // reused SlotStart bitmap
	slots     []int64 // SlotStart call order, for the ordering property
}

func (h *crashJamHook) SlotStart(slot int64, n int) []bool {
	h.n = n
	h.slots = append(h.slots, slot)
	if slot < h.crashSlot {
		return nil
	}
	if cap(h.inert) < n {
		h.inert = make([]bool, n)
	}
	h.inert = h.inert[:n]
	for i := range h.inert {
		h.inert[i] = false
	}
	h.inert[0] = true
	return h.inert
}

func (h *crashJamHook) PerturbTransmitters(slot int64, tx []int) []int {
	if slot%3 != 0 {
		return tx
	}
	jam := h.n - 1
	for _, id := range tx {
		if id == jam {
			return tx
		}
	}
	return append(tx, jam)
}

func (h *crashJamHook) FilterReceptions(slot int64, recs []sinr.Reception) {
	if slot >= h.crashSlot && recs[0].Sender >= 0 {
		recs[0].Sender = -1
	}
	if slot%3 == 0 {
		jam := h.n - 1
		for i := range recs {
			if recs[i].Sender == jam {
				recs[i].Sender = -1
			}
		}
	}
}

func (h *crashJamHook) DeliverFrame(slot int64, node int, f *Frame) *Frame { return f }

func (h *crashJamHook) NodePanicked(slot int64, node int, phase string, value interface{}, stack []byte) {
}

func (h *crashJamHook) Reset() { h.slots = h.slots[:0]; h.n = 0 }

// workerConfigs are the engine configurations the batch tests run under:
// one worker, and a parallel evaluator's receiver scan split across four.
var workerConfigs = []struct {
	name string
	cfg  Config
}{
	{"serial", Config{Seed: engineSeed, Workers: 1}},
	{"workers4", Config{Seed: engineSeed, Workers: 4}},
}

// TestBatchObserverOrdering is the observer-semantics property test: every
// observer and the fault hook see each slot exactly once, in slot order,
// observers fire in registration order within a slot, and Engine.Slot() is
// consistent (== the slot being finished) at callback time — with the
// slots split into Run calls of {1, 7, 64} slots each, under a crash+jam
// fault plan.
func TestBatchObserverOrdering(t *testing.T) {
	const n, slots = 32, 100
	for _, batch := range []int64{1, 7, 64} {
		t.Run(fmt.Sprintf("serial/batch=%d", batch), func(t *testing.T) {
			ch, err := sinr.NewChannel(sinr.DefaultParams(10), latticePositions(n))
			if err != nil {
				t.Fatal(err)
			}
			hook := &crashJamHook{crashSlot: 20}
			cfg := Config{Seed: engineSeed, Workers: 1, Faults: hook}
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = &randomNode{p: 0.2}
			}
			eng, err := NewEngine(ch, nodes, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// firings records (observer id, slot) in callback order; the
			// Slot() consistency check runs inside the callbacks.
			type firing struct {
				obs  int
				slot int64
			}
			var firings []firing
			for obs := 0; obs < 2; obs++ {
				id := obs
				eng.AddObserver(ObserverFunc(func(slot int64, tx []int, recs []sinr.Reception) {
					if got := eng.Slot(); got != slot {
						t.Errorf("observer %d at slot %d: Engine.Slot() = %d", id, slot, got)
					}
					firings = append(firings, firing{id, slot})
				}))
			}
			for left := int64(slots); left > 0; left -= batch {
				if ran, _ := eng.Run(min(batch, left), nil); ran != min(batch, left) {
					t.Fatalf("Run ran %d slots, want %d", ran, min(batch, left))
				}
			}
			if len(firings) != 2*slots {
				t.Fatalf("%d observer firings, want %d", len(firings), 2*slots)
			}
			for i, f := range firings {
				wantObs, wantSlot := i%2, int64(i/2)
				if f.obs != wantObs || f.slot != wantSlot {
					t.Fatalf("firing %d = observer %d slot %d, want observer %d slot %d",
						i, f.obs, f.slot, wantObs, wantSlot)
				}
			}
			if len(hook.slots) != slots {
				t.Fatalf("hook saw %d slots, want %d", len(hook.slots), slots)
			}
			for i, s := range hook.slots {
				if s != int64(i) {
					t.Fatalf("hook SlotStart %d fired for slot %d", i, s)
				}
			}
		})
	}
}

// TestRunBatchStopsWithinBatch pins the graceful-shutdown property behind
// sinrsim's SIGINT handling: the stop condition is polled before every
// slot, so Run halts in the slot the condition fires in — not at the end
// of its batch.
func TestRunBatchStopsWithinBatch(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		ch := twoNodeChannel(t, 5)
		sender := &beaconNode{period: 1, offset: 0}
		listener := &beaconNode{}
		eng, err := NewEngine(ch, []Node{sender, listener}, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ran, stopped := eng.Run(100, func() bool { return len(listener.received) >= 3 })
		if ran != 3 || !stopped {
			t.Fatalf("Run = (%d, %v), want (3, true): stop must take effect within the batch", ran, stopped)
		}
	})
}

// TestBatchFlushGuards pins the re-entry contract: state mutations and
// engine re-entry from an observer inside a running batch are rejected
// (error for ApplyEpoch/Reset, panic for Step/Run), while the same calls
// between Run invocations succeed.
func TestBatchFlushGuards(t *testing.T) {
	const n = 8
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), latticePositions(n))
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &randomNode{p: 0.2}
	}
	eng, err := NewEngine(ch, nodes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var applyErr, resetErr error
	var stepPanic, runPanic interface{}
	probed := false
	eng.AddObserver(ObserverFunc(func(slot int64, tx []int, recs []sinr.Reception) {
		if slot != 2 || probed {
			return
		}
		probed = true
		applyErr = eng.ApplyEpoch(&sinr.EpochDelta{}, nil)
		resetErr = eng.Reset(make([]Node, n), 1)
		func() {
			defer func() { stepPanic = recover() }()
			eng.Step()
		}()
		func() {
			defer func() { runPanic = recover() }()
			eng.Run(1, nil)
		}()
	}))
	if got, _ := eng.Run(8, nil); got != 8 {
		t.Fatalf("Run ran %d slots, want 8", got)
	}
	if !probed {
		t.Fatal("observer never probed the guards")
	}
	if applyErr == nil {
		t.Error("ApplyEpoch inside a batch succeeded, want error")
	}
	if resetErr == nil {
		t.Error("Reset inside a batch succeeded, want error")
	}
	if stepPanic == nil {
		t.Error("Step inside a batch did not panic")
	}
	if runPanic == nil {
		t.Error("Run inside a batch did not panic")
	}
	// Between batches Reset succeeds and the engine runs again.
	fresh := make([]Node, n)
	for i := range fresh {
		fresh[i] = &randomNode{p: 0.2}
	}
	if err := eng.Reset(fresh, 1); err != nil {
		t.Fatalf("Reset between batches failed: %v", err)
	}
	if got, _ := eng.Run(4, nil); got != 4 {
		t.Fatalf("Run after Reset ran %d slots, want 4", got)
	}
}

// TestRunBatchAllocFree pins the steady-state allocation contract for a
// batch at both worker counts: after warm-up, a 64-slot Run allocates
// nothing.
func TestRunBatchAllocFree(t *testing.T) {
	for _, wc := range workerConfigs {
		t.Run(wc.name, func(t *testing.T) {
			_, eng := buildScenario(t, 64, 7, true, wc.cfg)
			eng.Run(256, nil) // warm up scratch growth
			allocs := testing.AllocsPerRun(20, func() { eng.Run(64, nil) })
			if allocs != 0 {
				t.Fatalf("Run allocated %.1f times per 64-slot batch, want 0", allocs)
			}
		})
	}
}
