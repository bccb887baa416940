package main

import (
	"sort"
	"time"

	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
)

// slotTrace times every slot of a traced repetition from outside the
// engine. In every driver the evaluator runs between the tick and receive
// phases and observers fire once per slot, so three clock reads split a
// slot: tick = previous slot end → evaluator entry, eval = the evaluator
// call, recv = evaluator exit → this slot's observer. Spans are kept in
// per-slot arrays, preallocated so the trace itself does not allocate
// while the simulation runs.
type slotTrace struct {
	eng              *sim.Engine
	start            time.Time
	prev             time.Duration // end of the previous slot, or of the last epoch apply
	evalIn, evalOut  time.Duration
	evals            int64 // SlotReceptions calls, one per slot
	last             sim.Stats
	tick, eval, recv []int64 // ns per slot
	tx, rx           []int32
}

func newSlotTrace(horizon int64) *slotTrace {
	return &slotTrace{
		start: time.Now(),
		tick:  make([]int64, 0, horizon),
		eval:  make([]int64, 0, horizon),
		recv:  make([]int64, 0, horizon),
		tx:    make([]int32, 0, horizon),
		rx:    make([]int32, 0, horizon),
	}
}

// mark starts the next slot's tick span now: at the start of the loop and
// after each churn epoch, whose commit and apply are not slot time.
func (t *slotTrace) mark() { t.prev = time.Since(t.start) }

// OnSlot implements sim.Observer.
func (t *slotTrace) OnSlot(int64, []int, []sinr.Reception) {
	now := time.Since(t.start)
	st := t.eng.Stats()
	t.tick = append(t.tick, int64(t.evalIn-t.prev))
	t.eval = append(t.eval, int64(t.evalOut-t.evalIn))
	t.recv = append(t.recv, int64(now-t.evalOut))
	t.tx = append(t.tx, int32(st.Transmissions-t.last.Transmissions))
	t.rx = append(t.rx, int32(st.Receptions-t.last.Receptions))
	t.last = st
	t.prev = now
}

// timedEvaluator wraps the fast evaluator and stamps entry and exit of
// every SlotReceptions call. Embedding keeps WorkerPool, SetWorkers,
// Channel and ApplyEpoch visible to sim.NewEngine and Engine.ApplyEpoch, so
// the engine drives the wrapped evaluator exactly as it drives a bare one.
type timedEvaluator struct {
	*sinr.FastChannel
	trace *slotTrace
}

// SlotReceptions implements sinr.ChannelEvaluator.
func (e *timedEvaluator) SlotReceptions(transmitters []int) []sinr.Reception {
	e.trace.evalIn = time.Since(e.trace.start)
	e.trace.evals++
	out := e.FastChannel.SlotReceptions(transmitters)
	e.trace.evalOut = time.Since(e.trace.start)
	return out
}

// layerMetrics turns a traced repetition into its per-layer metrics.
// Protocol time is split by slot parity: the combined MAC runs hmbcast in
// even slots and approgress in odd ones, so the phase time of even slots is
// hmbcast's and that of odd slots approgress's. Every per-slot time is
// averaged over all slots, so hmbcast.* + approgress.* = sim.*. Metrics of
// layers the workload does not run are left out and read 0.
func (r *simRun) layerMetrics() map[string]float64 {
	t := r.trace
	slots := float64(len(t.tick))
	var tick, eval, recv, tickEven, recvEven int64
	walls := make([]float64, len(t.tick))
	for i := range t.tick {
		tick += t.tick[i]
		eval += t.eval[i]
		recv += t.recv[i]
		if i%2 == 0 {
			tickEven += t.tick[i]
			recvEven += t.recv[i]
		}
		walls[i] = float64(t.tick[i]+t.eval[i]+t.recv[i]) / 1e3
	}
	sort.Float64s(walls)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / slots }

	m := map[string]float64{
		"sim.tick_us_per_slot":     us(tick),
		"sim.recv_us_per_slot":     us(recv),
		"sinr.eval_us_per_slot":    us(eval),
		"sim.slot_us_p50":          quantileSorted(walls, 0.50),
		"sim.slot_us_p99":          quantileSorted(walls, 0.99),
		"topology.deploy_s":        r.deployS,
		"topology.graphs_s":        r.graphsS,
		"core.check_s":             r.checkS,
		"sim.allocs_per_slot":      float64(r.memLoop.Mallocs-r.memBefore.Mallocs) / slots,
		"sim.alloc_bytes_per_slot": float64(r.memLoop.TotalAlloc-r.memBefore.TotalAlloc) / slots,
		"runtime.gc_cycles":        float64(r.memLoop.NumGC - r.memBefore.NumGC),
		"runtime.gc_pause_ms":      float64(r.memLoop.PauseTotalNs-r.memBefore.PauseTotalNs) / 1e6,
	}
	if r.epochs > 0 {
		m["sinr.apply_us_per_epoch"] = float64(r.applyNs) / 1e3 / float64(r.epochs)
		m["topology.commit_us_per_epoch"] = float64(r.commitNs) / 1e3 / float64(r.epochs)
	}
	if r.spec.decay {
		m["decay.tick_us_per_slot"] = us(tick)
		m["decay.recv_us_per_slot"] = us(recv)
	} else {
		m["hmbcast.tick_us_per_slot"] = us(tickEven)
		m["hmbcast.recv_us_per_slot"] = us(recvEven)
		m["approgress.tick_us_per_slot"] = us(tick - tickEven)
		m["approgress.recv_us_per_slot"] = us(recv - recvEven)
	}

	bs := r.fast.BoundsStats()
	m["sinr.bounds_slot_share"] = float64(bs.Slots) / slots
	m["sinr.bounds_refine_rate"] = bs.RefineRate()
	cs := r.fast.ColumnStats()
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		m["sinr.column_miss_rate"] = float64(cs.Misses) / float64(lookups)
	}
	return m
}

// quantileSorted returns the q-quantile of sorted values by the nearest-rank
// rule.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
