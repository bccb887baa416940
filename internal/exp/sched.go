package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

// This file implements the deterministic parallel trial scheduler every
// experiment runs on.
//
// An experiment is a sweep grid of (point × trial) jobs. runTrials fans the
// jobs across a bounded worker pool and merges the results into a
// [point][trial] matrix, so aggregation code consumes them in canonical
// order no matter which worker finished which job when.
//
// # Seed derivation
//
// Every random stream is a pure function of (Config.Seed, experiment,
// point, trial), derived with rng.Source.SplitLabeled label paths instead
// of the loop-carried arithmetic seeds the sequential harness used:
//
//	expSrc    = rng.New(cfg.Seed).SplitLabeled(rng.Label(experiment))
//	deploySrc = expSrc.SplitLabels(point, 0)           // sweep-point deployment
//	tc.Src    = expSrc.SplitLabels(point, trial+1, 0)  // in-trial randomness
//	engine    = expSrc.SplitLabels(point, trial+1, 1)  // per-node protocol streams
//
// SplitLabeled never advances its parent, so a job's streams depend only on
// its coordinates — never on scheduling order or worker count. That is the
// determinism contract: the tables emitted with Workers: 8 are bit-identical
// to the tables emitted with Workers: 1.
//
// # Fixed-cost reuse and sampling semantics
//
// The sweep-point deployment is built exactly once (guarded by sync.Once)
// and shared by every trial: its strong graph, Λ, SINR channel and the fast
// evaluator's n×n power matrix are all paid once per point. Each worker
// additionally keeps, per point, a private fork of the point's fast
// evaluator (sinr.FastChannel.Fork — shared immutable matrix or cell
// index, private scratch) and one sim.Engine that later trials rewind
// with Engine.Reset instead of reallocating.
//
// Sharing the deployment changes what "trials" sample: they average over
// protocol randomness on one fixed topology per sweep point, not over fresh
// topology draws per trial as the pre-scheduler harness did. Topology
// randomness enters across sweep points (each point draws its own
// deployment from its own label). This is a deliberate trade — it is what
// lets the power matrix and engine be reused at all — and matches the
// common randomized-sweep methodology of fixing an instance per
// configuration; raise the number of sweep points, not Trials, to sample
// more topologies.

// workers resolves the scheduler's worker count: Config.Workers, or
// GOMAXPROCS when zero or negative.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// pointState is the shared per-sweep-point state: the deployment, its
// channel and the base fast evaluator whose power matrix all trial forks
// share. It is initialised by whichever job reaches the point first; the
// deployment itself is seeded from point-level labels, so the result does
// not depend on which job that is.
type pointState struct {
	once sync.Once
	err  error
	dep  *topology.Deployment
	ch   *sinr.Channel
	base *sinr.FastChannel
}

// trialWorker is the per-worker cache: one engine (and evaluator fork) per
// sweep point, reused across all trials this worker runs on that point.
type trialWorker struct {
	engines map[int]*sim.Engine
}

// TrialContext is handed to the trial function of runTrials. It identifies
// the job, carries its private random streams, and provides the reuse
// plumbing (shared deployment, per-worker engine).
type TrialContext struct {
	// Point and Trial are the job's coordinates in the sweep grid.
	Point int
	Trial int
	// Src is the trial's private random source for in-trial randomness
	// (message origins, initial values). It is a pure function of
	// (Config.Seed, experiment, Point, Trial).
	Src *rng.Source

	seed      uint64 // engine seed: per-node protocol streams
	deploySrc *rng.Source
	ps        *pointState
	worker    *trialWorker
}

// Deployment returns the sweep point's deployment, building it on first use
// via build and sharing it with every other trial of the point. build
// receives the point-level source, so the deployment depends only on
// (Config.Seed, experiment, Point) — identical for every trial and worker
// count. The first build also raises the point's SINR channel and the base
// fast evaluator whose power matrix all trials share.
func (tc *TrialContext) Deployment(build func(src *rng.Source) (*topology.Deployment, error)) (*topology.Deployment, error) {
	ps := tc.ps
	ps.once.Do(func() {
		d, err := build(tc.deploySrc)
		if err != nil {
			ps.err = err
			return
		}
		ch, err := d.Channel()
		if err != nil {
			ps.err = err
			return
		}
		ps.dep, ps.ch = d, ch
		ps.base = sinr.NewFastChannel(ch)
	})
	return ps.dep, ps.err
}

// Channel returns the sweep point's SINR channel. Deployment must have been
// called first.
func (tc *TrialContext) Channel() (*sinr.Channel, error) {
	if tc.ps.ch == nil {
		return nil, fmt.Errorf("exp: Channel called before Deployment for point %d", tc.Point)
	}
	return tc.ps.ch, nil
}

// Engine returns this worker's engine over the point's deployment, rewound
// to slot zero with the given nodes and the trial's engine seed. The first
// call on a (worker, point) pair builds the engine over a private fork of
// the point's fast evaluator; later calls reuse it via sim.Engine.Reset, so
// repeated trials stop repaying the engine's fixed costs. The engine runs
// its receiver scan single-threaded: trial-level parallelism already
// saturates the worker pool, and the per-slot deployments the experiments
// sweep are far too small to amortise per-slot goroutines.
func (tc *TrialContext) Engine(nodes []sim.Node) (*sim.Engine, error) {
	if tc.ps.ch == nil {
		return nil, fmt.Errorf("exp: Engine called before Deployment for point %d", tc.Point)
	}
	eng := tc.worker.engines[tc.Point]
	if eng == nil {
		eng, err := sim.NewEngine(tc.ps.ch, nodes, sim.Config{
			Seed:      tc.seed,
			Workers:   1,
			Evaluator: tc.ps.base.Fork(),
		})
		if err != nil {
			return nil, err
		}
		tc.worker.engines[tc.Point] = eng
		return eng, nil
	}
	if err := eng.Reset(nodes, tc.seed); err != nil {
		return nil, err
	}
	return eng, nil
}

// PrivateEngine builds a trial-private engine over a channel and evaluator
// the trial owns, seeded with the trial's engine seed. The churn and fault
// experiments use it: churn epochs mutate the deployment, channel and
// evaluator in place, and a fault injector carries per-trial mutable
// schedule state, so — unlike Engine — nothing here may be shared with or
// reused by other trials of the point. The caller owns the evaluator's
// lifetime (close a FastChannel when the trial ends); faults may be nil.
func (tc *TrialContext) PrivateEngine(ch *sinr.Channel, nodes []sim.Node, ev sinr.ChannelEvaluator, faults sim.FaultHook) (*sim.Engine, error) {
	return sim.NewEngine(ch, nodes, sim.Config{
		Seed:      tc.seed,
		Workers:   1,
		Evaluator: ev,
		Faults:    faults,
	})
}

// runTrials runs fn once for every job of a points × trials sweep grid,
// fanning the jobs across cfg.workers() workers, and returns the results as
// a [point][trial] matrix in canonical order. Results are written to
// disjoint slots, errors are reported in canonical job order, and all
// randomness is label-derived, so the output is independent of the worker
// count. On error the first failing job (in canonical order) wins and the
// partial results are discarded.
func runTrials[T any](cfg Config, experiment string, points, trials int, fn func(tc *TrialContext) (T, error)) ([][]T, error) {
	if points <= 0 || trials <= 0 {
		return nil, fmt.Errorf("exp: %s: empty sweep grid (%d points × %d trials)", experiment, points, trials)
	}
	states := make([]*pointState, points)
	for i := range states {
		states[i] = &pointState{}
	}
	results := make([][]T, points)
	for i := range results {
		results[i] = make([]T, trials)
	}
	errs := make([]error, points*trials)

	expSrc := rng.New(cfg.Seed).SplitLabeled(rng.Label(experiment))
	var failed atomic.Bool
	runJob := func(wk *trialWorker, job int) {
		if cfg.Interrupt != nil && cfg.Interrupt() {
			errs[job] = ErrInterrupted
			failed.Store(true)
			return
		}
		point, trial := job/trials, job%trials
		tc := &TrialContext{
			Point:     point,
			Trial:     trial,
			Src:       expSrc.SplitLabels(uint64(point), uint64(trial)+1, 0),
			seed:      expSrc.SplitLabels(uint64(point), uint64(trial)+1, 1).Uint64(),
			deploySrc: expSrc.SplitLabels(uint64(point), 0),
			ps:        states[point],
			worker:    wk,
		}
		results[point][trial], errs[job] = fn(tc)
		if errs[job] != nil {
			failed.Store(true)
		}
	}

	jobs := points * trials
	workers := cfg.workers()
	if workers > jobs {
		workers = jobs
	}
	// Once any job has failed the sweep's output is discarded anyway, so
	// workers stop picking up new jobs (in-flight ones finish). Which later
	// jobs got skipped depends on timing, but the reported error does not:
	// the first failure in canonical order is deterministic because every
	// job scheduled before the failure was observed still runs.
	if workers <= 1 {
		wk := &trialWorker{engines: make(map[int]*sim.Engine)}
		for job := 0; job < jobs && !failed.Load(); job++ {
			runJob(wk, job)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wk := &trialWorker{engines: make(map[int]*sim.Engine)}
				for !failed.Load() {
					job := int(next.Add(1) - 1)
					if job >= jobs {
						return
					}
					runJob(wk, job)
				}
			}()
		}
		wg.Wait()
	}
	for job, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: %s point %d trial %d: %w", experiment, job/trials, job%trials, err)
		}
	}
	return results, nil
}
