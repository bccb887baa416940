package workpool

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// panicTask panics on every chunk containing the trigger index and counts
// the indexes the surviving chunks covered.
type panicTask struct {
	trigger int
	covered atomic.Int64
}

func (p *panicTask) RunChunk(lo, hi, worker int) {
	if lo <= p.trigger && p.trigger < hi {
		panic("chunk boom")
	}
	p.covered.Add(int64(hi - lo))
}

// recoverPanicError runs fn and returns the recovered *PanicError, failing
// the test if fn does not panic with one.
func recoverPanicError(t *testing.T, fn func()) *PanicError {
	t.Helper()
	var pe *PanicError
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("no panic was re-raised")
			}
			var ok bool
			if pe, ok = v.(*PanicError); !ok {
				t.Fatalf("re-raised value is %T, want *PanicError", v)
			}
		}()
		fn()
	}()
	return pe
}

// TestRunReRaisesHelperPanic: a panic on a helper chunk surfaces on the
// calling goroutine at Run return, wrapped with the original value, the
// worker index and the panicking goroutine's stack — and the other chunks
// still complete.
func TestRunReRaisesHelperPanic(t *testing.T) {
	p := New()
	defer p.Close()
	const n, workers = 64, 4
	chunk := (n + workers - 1) / workers
	task := &panicTask{trigger: 2 * chunk} // worker 2's chunk
	pe := recoverPanicError(t, func() { p.Run(n, workers, task) })
	if pe.Value != "chunk boom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if pe.Worker != 2 {
		t.Fatalf("worker = %d, want 2", pe.Worker)
	}
	if !strings.Contains(string(pe.Stack), "RunChunk") {
		t.Fatalf("stack does not name the chunk:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "worker 2") {
		t.Fatalf("Error() = %q", pe.Error())
	}
	if got := task.covered.Load(); got != int64(n-chunk) {
		t.Fatalf("surviving chunks covered %d indexes, want %d", got, n-chunk)
	}
	var err error = pe
	var target *PanicError
	if !errors.As(err, &target) {
		t.Fatal("PanicError does not satisfy errors.As")
	}
}

// TestRunReRaisesLeaderPanic: the leader's own chunk (worker 0) gets the
// same treatment, so helpers are always rejoined before the panic escapes.
func TestRunReRaisesLeaderPanic(t *testing.T) {
	p := New()
	defer p.Close()
	task := &panicTask{trigger: 0}
	pe := recoverPanicError(t, func() { p.Run(64, 4, task) })
	if pe.Worker != 0 {
		t.Fatalf("worker = %d, want 0", pe.Worker)
	}
	// The pool stays usable after the caller recovers.
	ok := &panicTask{trigger: -1}
	p.Run(64, 4, ok)
	if ok.covered.Load() != 64 {
		t.Fatalf("pool unusable after recovered panic: covered %d", ok.covered.Load())
	}
}

// TestFirstPanicWins: with every chunk panicking, exactly one PanicError is
// re-raised and the pool is clean afterwards.
func TestFirstPanicWins(t *testing.T) {
	p := New()
	defer p.Close()
	all := &panicAllTask{}
	pe := recoverPanicError(t, func() { p.Run(64, 8, all) })
	if pe.Value != "boom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	// No second panic is pending.
	ok := &panicTask{trigger: -1}
	p.Run(64, 8, ok)
	if ok.covered.Load() != 64 {
		t.Fatalf("stale panic corrupted the next Run: covered %d", ok.covered.Load())
	}
}

type panicAllTask struct{}

func (panicAllTask) RunChunk(lo, hi, worker int) { panic("boom") }
