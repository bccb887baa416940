// Package workpool provides the persistent worker pool the slot pipeline
// runs its parallel phases on.
//
// The simulation engine and the fast SINR evaluator both partition a dense
// index space (nodes, receivers, sparse candidates) into contiguous chunks
// and evaluate the chunks concurrently, thousands of times per second. The
// obvious fork/join — spawn a goroutine per chunk, wait on a WaitGroup —
// pays goroutine creation, stack setup and scheduler churn on every single
// slot. A Pool instead keeps its helper goroutines alive across calls,
// parked on a per-worker channel; a Run is one channel send per helper to
// wake it and one WaitGroup rendezvous to rejoin, with the calling
// goroutine executing chunk 0 itself so a pool of k workers needs only k-1
// helpers.
//
// A slot is not one parallel loop but a pipeline of them (tick, evaluate,
// receive) separated by serial interludes on the caller. Paying a full
// park/unpark per phase triples the handoff cost, so the pool also offers
// fused sessions: between Begin and End the helpers are woken once and then
// driven through every phase by a spin-then-park barrier — an atomic phase
// generation the helpers poll (yielding to the scheduler, so a session is
// safe at GOMAXPROCS=1) for a short budget before parking on their wake
// channel. Phases that arrive back to back, as they do inside one slot,
// synchronize without touching the scheduler at all; Run calls issued while
// a session is open join it transparently, so an evaluator sharing the
// engine's pool needs no session awareness. Sessions wake helpers lazily:
// a session whose phases all run inline (small n, one worker) never wakes
// anyone.
//
// The body of a parallel loop is passed as a Task interface value rather
// than a closure: callers store their task (typically a pointer to the
// owning struct) once and hand the same value to every Run, so the
// steady-state slot path performs zero heap allocations (sessions included:
// Begin/End reuse state owned by the Pool).
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
// stack — on the owning goroutine at the next rendezvous (Run return or
// session End). Only the first panic is kept; later ones are dropped.
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

// sessionSpins bounds how many scheduler yields a session participant
// spends polling the phase generation before parking on its channel. The
// budget keeps back-to-back phases scheduler-free while capping the cost of
// a long serial interlude (evaluator preparation on the leader) to a few
// microseconds of yields per helper. Pools created on a single-processor
// runtime get a zero budget instead (see New): with GOMAXPROCS=1 the phase
// generation can only advance while the goroutine being waited on holds the
// CPU, so every spin iteration merely delays it — the yield ping-pong
// between spinning helpers and the leader's serial interlude is pure
// overhead, and parking immediately is strictly cheaper.
const sessionSpins = 128

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
	task  Task
	n     int
	chunk int

	// Session state. The owner-side fields (sessActive, sessWoke,
	// sessWorkers, sessHelpers) are only touched by the owning goroutine;
	// the fields the helpers read (sessMode, sessBase, sessDone and the
	// per-phase pTask/pN/pChunk) are published either by a wake-channel
	// send or by the seq-cst phase counter, so every read is ordered by a
	// synchronizing operation.
	sessActive  bool // a session is open (owner-side)
	sessWoke    bool // helpers have been woken into the session
	sessMode    bool // helpers: a wake enters the session loop, not a plain chunk
	sessWorkers int
	sessHelpers int
	sessDone    bool
	sessBase    uint64 // phase generation the woken helpers start from
	phase       atomic.Uint64
	arrived     atomic.Int64
	pTask       Task
	pN          int
	pChunk      int
	panicked    atomic.Pointer[PanicError] // first chunk panic, re-raised at rendezvous
	parked      []int32                    // per-helper: 1 while parked at a session barrier
	leaderPark  int32
	leaderWake  chan struct{}
	spins       int // per-wait spin budget: sessionSpins, or 0 at GOMAXPROCS=1
}

// Pool is a persistent worker pool. The zero value is not usable; call New.
//
// Run, Begin, End and Close may not be called concurrently with each other
// on the same pool: the pool serves one parallel loop at a time (the slot
// pipeline's phases are sequential, and concurrent users — evaluator forks
// — each own a private pool). Close must not be called while a session is
// open.
type Pool struct {
	s *state
}

// New returns an empty pool. Helper goroutines are spawned lazily by Run.
func New() *Pool {
	p := &Pool{s: &state{
		stop:       make(chan struct{}),
		leaderWake: make(chan struct{}, 1),
		spins:      sessionSpins,
	}}
	if runtime.GOMAXPROCS(0) == 1 {
		// Spinning at a barrier only pays off when another processor can
		// advance the phase concurrently; single-proc pools park right away.
		p.s.spins = 0
	}
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
// its next phase, so the WaitGroup and session barriers stay balanced.
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
				if s.sessMode {
					if !s.helperSession(w, wake) {
						return
					}
					continue
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
	for len(s.parked) < k {
		s.parked = append(s.parked, 0)
	}
}

// Run partitions [0, n) into up to workers contiguous chunks and executes
// t.RunChunk over them, blocking until every chunk has finished. Worker 0
// is the calling goroutine; the partition depends only on n and workers, so
// a deterministic Task yields deterministic results at any worker count.
// With workers <= 1 (or n <= 1) the loop runs inline with no handoff at
// all. Inside an open session the call joins the session's fused barrier
// instead of paying a park/unpark round trip.
func (p *Pool) Run(n, workers int, t Task) {
	if n <= 0 {
		return
	}
	s := p.s
	if s.sessActive {
		s.sessRun(n, workers, t)
		runtime.KeepAlive(p)
		return
	}
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

// Begin opens a fused session with up to workers workers. Until the
// matching End, every Run on the pool executes its phases on one set of
// session helpers that are woken at most once (on the first phase that
// needs them) and synchronize through spin-then-park barriers between
// phases. Begin allocates nothing once the pool has grown to the session
// width. Sessions do not nest.
func (p *Pool) Begin(workers int) {
	s := p.s
	if s.sessActive {
		panic("workpool: nested Begin")
	}
	if workers < 1 {
		workers = 1
	}
	s.sessActive = true
	s.sessWoke = false
	s.sessWorkers = workers
	s.sessHelpers = workers - 1
	if s.sessHelpers > 0 {
		s.grow(s.sessHelpers)
	}
	runtime.KeepAlive(p)
}

// End closes the session opened by Begin: the helpers (if any were woken)
// are released back to their parked wake loop and the call returns once
// every one of them has left the session, so a following Begin or plain Run
// observes a quiescent pool.
func (p *Pool) End() {
	s := p.s
	if !s.sessActive {
		panic("workpool: End without Begin")
	}
	s.sessActive = false
	if !s.sessWoke {
		return
	}
	s.sessWoke = false
	s.sessDone = true
	s.phase.Add(1)
	s.wakeParked()
	s.wg.Wait()
	s.sessDone = false
	s.sessMode = false
	s.rethrow()
	runtime.KeepAlive(p)
}

// InSession reports whether a fused session is currently open. Only the
// pool's owning goroutine may call it.
func (p *Pool) InSession() bool { return p.s.sessActive }

// sessRun executes one phase of an open session: it publishes the phase
// parameters, advances the phase generation (waking helpers lazily on the
// first parallel phase), runs chunk 0 on the caller and waits at the
// barrier for the session helpers.
func (s *state) sessRun(n, workers int, t Task) {
	if workers > s.sessWorkers {
		workers = s.sessWorkers
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial interlude: the helpers keep spinning (or stay parked) at
		// the current barrier; no phase is published.
		t.RunChunk(0, n, 0)
		return
	}
	chunk := (n + workers - 1) / workers
	s.pTask, s.pN, s.pChunk = t, n, chunk
	s.arrived.Store(0)
	g := s.phase.Add(1)
	if !s.sessWoke {
		// First parallel phase of the session: wake every session helper.
		// They enter helperSession at generation g-1 and immediately
		// observe this phase.
		s.sessWoke = true
		s.sessMode = true
		s.sessBase = g - 1
		s.sessDone = false
		s.wg.Add(s.sessHelpers)
		for i := 0; i < s.sessHelpers; i++ {
			s.wake[i] <- struct{}{}
		}
	} else {
		s.wakeParked()
	}
	s.runChunk(t, 0, chunk, 0)
	s.awaitArrived()
	s.pTask = nil
}

// wakeParked delivers one wake to every session helper that parked at the
// barrier. The park flag is handed off by compare-and-swap, so between the
// helper and the leader exactly one of them claims it: a claimed flag is
// always followed by exactly one send, and an unclaimed one by none.
func (s *state) wakeParked() {
	for i := 0; i < s.sessHelpers; i++ {
		if atomic.CompareAndSwapInt32(&s.parked[i], 1, 0) {
			s.wake[i] <- struct{}{}
		}
	}
}

// awaitArrived blocks the leader until every session helper has arrived at
// the current phase barrier, spinning briefly before parking on leaderWake.
// A wake can be stale: the last helper of the previous phase counts its
// arrival, the leader moves on, and only then does that helper claim the
// park flag the leader set for this phase. So a woken leader re-checks the
// count and parks again until the barrier is really full.
func (s *state) awaitArrived() {
	target := int64(s.sessHelpers)
	for i := 0; i < s.spins; i++ {
		if s.arrived.Load() >= target {
			return
		}
		runtime.Gosched()
	}
	for {
		atomic.StoreInt32(&s.leaderPark, 1)
		if s.arrived.Load() >= target && atomic.CompareAndSwapInt32(&s.leaderPark, 1, 0) {
			// The last helper arrived before it could claim the park flag,
			// so no wake is coming (its CAS will fail); reclaiming the flag
			// ourselves keeps the channel empty.
			return
		}
		<-s.leaderWake
		if s.arrived.Load() >= target {
			return
		}
	}
}

// helperSession is a helper's life inside one fused session: wait for each
// phase generation, run the helper's chunk, count into the arrival barrier,
// repeat until the leader publishes the done phase. It reports false when
// the pool is shutting down.
func (s *state) helperSession(w int, wake chan struct{}) bool {
	g := s.sessBase
	for {
		if !s.awaitPhase(g+1, w, wake) {
			s.wg.Done()
			return false
		}
		g++
		if s.sessDone {
			s.wg.Done()
			return true
		}
		lo := w * s.pChunk
		if lo < s.pN {
			hi := lo + s.pChunk
			if hi > s.pN {
				hi = s.pN
			}
			s.runChunk(s.pTask, lo, hi, w)
		}
		if s.arrived.Add(1) == int64(s.sessHelpers) &&
			atomic.CompareAndSwapInt32(&s.leaderPark, 1, 0) {
			s.leaderWake <- struct{}{}
		}
	}
}

// awaitPhase waits until the session's phase generation reaches target,
// spinning with scheduler yields before parking on the helper's wake
// channel. The park flag handoff mirrors wakeParked: the helper publishes
// its flag, re-checks the generation, and either reclaims the flag itself
// (no signal coming) or consumes the signal of the leader that claimed it.
// A signal can be stale: a leader descheduled inside wakeParked for the
// previous phase may claim the flag this helper set for the next one, so a
// woken helper re-checks the generation and parks again until it is
// reached. It reports false when the pool is shutting down.
func (s *state) awaitPhase(target uint64, w int, wake chan struct{}) bool {
	for i := 0; i < s.spins; i++ {
		if s.phase.Load() >= target {
			return true
		}
		runtime.Gosched()
	}
	idx := w - 1
	for {
		atomic.StoreInt32(&s.parked[idx], 1)
		if s.phase.Load() >= target && atomic.CompareAndSwapInt32(&s.parked[idx], 1, 0) {
			return true
		}
		select {
		case <-wake:
		case <-s.stop:
			return false
		}
		if s.phase.Load() >= target {
			return true
		}
	}
}
