// Package workpool provides the persistent worker pool the fast SINR
// evaluator splits its receiver scan across.
//
// The evaluator partitions a dense index space (receivers, supercells,
// lattice stripes) into contiguous chunks and evaluates the chunks concurrently,
// thousands of times per second. The obvious fork/join — spawn a goroutine
// per chunk, wait on a WaitGroup — pays goroutine creation, stack setup and
// scheduler churn on every single slot. A Pool instead keeps its helper goroutines alive across calls,
// parked on a per-worker channel; a Run is one channel send per helper to
// wake it and one WaitGroup rendezvous to rejoin, with the calling
// goroutine executing chunk 0 itself so a pool of k workers needs only k-1
// helpers.
//
// The body of a parallel loop is passed as a Task interface value rather
// than a closure: callers store their task (typically a pointer to the
// owning struct) once and hand the same value to every Run, so the
// steady-state slot path performs zero heap allocations.
//
// Helpers are spawned lazily on first parallel use and parked between
// calls; an idle Pool costs nothing but the parked stacks. Close releases
// them explicitly, and a runtime cleanup tied to the Pool header releases
// them when the owner is garbage collected, so pools embedded in
// per-experiment evaluators do not leak goroutines across a long test run.
package workpool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Task is the body of one parallel loop. RunChunk is invoked with a
// half-open index range [lo, hi) and the index of the worker running it
// (0 ≤ worker < workers); per-worker scratch is indexed by that worker id.
// Distinct chunks are disjoint, so a Task needs no locking as long as it
// only writes state owned by its range or its worker.
type Task interface {
	RunChunk(lo, hi, worker int)
}

// PanicError is a panic recovered on a pool worker. A panic inside a chunk
// must not kill the process from a helper goroutine (which would skip every
// deferred handler on the caller's stack), so the pool recovers it, lets
// the remaining chunks finish, and re-raises the first panic — wrapped in a
// PanicError carrying the original value and the panicking goroutine's
// stack — on the owning goroutine when Run returns. Only the first panic is
// kept; later ones are dropped.
type PanicError struct {
	// Value is the original panic value.
	Value interface{}
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
	// Worker is the worker index whose chunk panicked.
	Worker int
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("workpool: worker %d panicked: %v", e.Worker, e.Value)
}

// state is the part of the pool the helper goroutines reference. It is
// split from Pool so that the helpers do not keep the Pool header itself
// reachable: when the owning Pool becomes unreachable, its runtime cleanup
// closes stop and the helpers exit.
type state struct {
	stopOnce sync.Once
	stop     chan struct{}
	wake     []chan struct{}
	wg       sync.WaitGroup

	// Per-run parameters. Written by Run before the wake sends and read by
	// helpers after their wake receive, so the channel handoff orders the
	// accesses.
	task     Task
	n        int
	chunk    int
	panicked atomic.Pointer[PanicError] // first chunk panic, re-raised when Run returns
}

// Pool is a persistent worker pool. The zero value is not usable; call New.
//
// Run and Close may not be called concurrently with each other on the same
// pool: the pool serves one parallel loop at a time (concurrent users —
// evaluator forks — each own a private pool).
type Pool struct {
	s *state
}

// New returns an empty pool. Helper goroutines are spawned lazily by Run.
func New() *Pool {
	p := &Pool{s: &state{stop: make(chan struct{})}}
	// Backstop: release the helpers when the pool's owner drops it without
	// calling Close. The cleanup references only the inner state, never the
	// Pool header, so it does not keep the pool alive.
	runtime.AddCleanup(p, func(s *state) { s.shutdown() }, p.s)
	return p
}

func (s *state) shutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// runChunk executes one chunk under a panic guard: the first panic across
// the pool's chunks is captured (value, stack, worker) for re-raising at
// the rendezvous; the chunk is abandoned but the worker survives to take
// its next Run, so the WaitGroup stays balanced.
func (s *state) runChunk(t Task, lo, hi, worker int) {
	defer func() {
		if v := recover(); v != nil {
			s.panicked.CompareAndSwap(nil, &PanicError{
				Value:  v,
				Stack:  debug.Stack(),
				Worker: worker,
			})
		}
	}()
	t.RunChunk(lo, hi, worker)
}

// rethrow re-raises the first captured chunk panic on the calling
// goroutine, clearing it so the pool remains usable if the caller recovers.
func (s *state) rethrow() {
	if pe := s.panicked.Swap(nil); pe != nil {
		panic(pe)
	}
}

// Close parks no more: it signals every helper goroutine to exit. The pool
// must not be used afterwards. Close is idempotent and safe to call on a
// pool whose helpers were never spawned.
func (p *Pool) Close() { p.s.shutdown() }

// grow ensures at least k helper goroutines exist, spawning the missing
// ones. Helper i serves worker index i+1 (the caller is worker 0).
func (s *state) grow(k int) {
	for len(s.wake) < k {
		wake := make(chan struct{}, 1)
		s.wake = append(s.wake, wake)
		w := len(s.wake) // worker index: helper i-1 runs chunk i
		go func() {
			for {
				select {
				case <-wake:
				case <-s.stop:
					return
				}
				lo := w * s.chunk
				hi := lo + s.chunk
				if hi > s.n {
					hi = s.n
				}
				s.runChunk(s.task, lo, hi, w)
				s.wg.Done()
			}
		}()
	}
}

// Run partitions [0, n) into up to workers contiguous chunks and executes
// t.RunChunk over them, blocking until every chunk has finished. Worker 0
// is the calling goroutine; the partition depends only on n and workers, so
// a deterministic Task yields deterministic results at any worker count.
// With workers <= 1 (or n <= 1) the loop runs inline with no handoff at
// all.
func (p *Pool) Run(n, workers int, t Task) {
	if n <= 0 {
		return
	}
	s := p.s
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		t.RunChunk(0, n, 0)
		return
	}
	chunk := (n + workers - 1) / workers
	// Workers whose chunk starts at or beyond n have nothing to do; with
	// chunk = ceil(n/workers) that is exactly the tail beyond ceil(n/chunk).
	helpers := (n+chunk-1)/chunk - 1
	if helpers > workers-1 {
		helpers = workers - 1
	}
	s.grow(helpers)
	s.task, s.n, s.chunk = t, n, chunk
	s.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		s.wake[i] <- struct{}{}
	}
	s.runChunk(t, 0, chunk, 0)
	s.wg.Wait()
	s.task = nil
	s.rethrow()
	// The Pool header must stay reachable for the whole Run: its runtime
	// cleanup closes stop, and a helper with both a buffered wake signal
	// and a closed stop channel may exit without running its chunk.
	runtime.KeepAlive(p)
}
