package workpool

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitGoroutines polls until the live goroutine count drops to at most
// want or five seconds pass, reporting the final count. A closed pool's
// helpers exit asynchronously, and under full-suite load the scheduler can
// take a while to run them.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := runtime.NumGoroutine()
		if g <= want || time.Now().After(deadline) {
			return g
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGoroutineLeakAcrossPoolLifecycles(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		p := New()
		task := &allocTask{}
		p.Run(256, 4, task)
		p.Run(256, 2, task)
		p.Close()
	}
	if g := waitGoroutines(before); g > before {
		t.Fatalf("goroutines grew from %d to %d across 20 pool lifecycles", before, g)
	}
}

func TestDoubleCloseIsSafe(t *testing.T) {
	p := New()
	task := &allocTask{}
	p.Run(64, 4, task)
	p.Close()
	p.Close() // idempotent
	// And concurrently, from many goroutines at once.
	q := New()
	q.Run(64, 4, task)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Close()
		}()
	}
	wg.Wait()
	// Close on a pool that never spawned helpers.
	New().Close()
}

func TestCloseVsWakeRace(t *testing.T) {
	// Hammer the window between a Run returning and the helpers re-parking
	// on their wake channels: Close fires from another
	// goroutine the moment the owner finishes, while the helpers may still
	// be between their WaitGroup rendezvous and their next channel select.
	// Run under -race this exercises the stop/wake handoff; the test fails
	// by deadlock (test timeout) or detector report, not by assertion.
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		p := New()
		task := &allocTask{}
		p.Run(128, 4, task)
		if i%2 == 1 {
			p.Run(128, 4, task)
		}
		done := make(chan struct{})
		go func() {
			p.Close()
			close(done)
		}()
		p.Close() // racing double close from the owner
		<-done
	}
	if g := waitGoroutines(before + 4); g > before+4 {
		t.Fatalf("goroutines grew from %d to %d across Close races", before, g)
	}
}
