package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"sinrmac/internal/core"
	"sinrmac/internal/decay"
	"sinrmac/internal/exp"
	"sinrmac/internal/geom"
	"sinrmac/internal/mac"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

// workload is one named set of inputs: a simulation, or the experiment
// tables when sim is nil.
type workload struct {
	name string
	sim  *simSpec
}

// simSpec is a closed-loop simulation: k client nodes each keep one
// broadcast in flight over a fixed slot horizon.
type simSpec struct {
	deploy   func(src *rng.Source) (*topology.Deployment, error)
	decay    bool  // Decay with Δ̃ = maxdeg+1 instead of the combined MAC
	clients  int   // k; 0 means every node
	parallel bool  // parallel driver on two workers, else serial on one; only the tests set it
	horizon  int64 // slots per repetition
	// churnEvery > 0 commits an epoch of churnMoves jittered nodes every
	// churnEvery slots and applies it to the running engine.
	churnEvery int64
	churnMoves int
}

// workloads is the benchmark's fixed workload set; the package comment
// says why each one is there. Every simulation runs on the serial driver:
// on a shared two-CPU host the parallel driver's per-slot barriers wait
// for whichever worker the host preempted, and its wall time spread past
// any usable bound.
var workloads = []workload{
	{name: "mac_uniform", sim: &simSpec{deploy: uniformDeployment, clients: 409, horizon: 900}},
	{name: "mac_dense", sim: &simSpec{deploy: clusterDeployment, horizon: 5000}},
	{name: "decay_uniform", sim: &simSpec{deploy: uniformDeployment, decay: true, horizon: 300}},
	{name: "decay_churn", sim: &simSpec{deploy: uniformDeployment, decay: true, horizon: 160, churnEvery: 16, churnMoves: 41}},
	{name: "tables"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// uniformDeployment is n = 4096 nodes, range 12, in a square of side
// 2.2·√n·2 (cmd/sinrsim's uniform topology): the grid evaluator regime.
func uniformDeployment(src *rng.Source) (*topology.Deployment, error) {
	const n = 4096
	return topology.ConnectedUniform(n, 2.2*math.Sqrt(n)*2, sinr.DefaultParams(12), src, 100)
}

// clusterDeployment is four clusters of 128 nodes with range 3·√n, so each
// node's strong neighbourhood spans its own cluster and half of each
// neighbouring one: the matrix regime at large Δ.
func clusterDeployment(src *rng.Source) (*topology.Deployment, error) {
	const clusters, size = 4, 128
	return topology.Clusters(clusters, size, sinr.DefaultParams(3*math.Sqrt(clusters*size)), src)
}

// client is the benchmark-owned layer on each client node: it issues a
// fresh broadcast, ID node<<32|seq, in the first slot after the previous one
// acked.
type client struct {
	core.NopLayer
	node int
	mac  core.MAC
	seq  uint64
}

func (c *client) Attach(node int, m core.MAC, _ *rng.Source) { c.node, c.mac, c.seq = node, m, 0 }

func (c *client) OnSlot(slot int64) {
	if !c.mac.Busy() {
		c.seq++
		c.mac.Bcast(slot, core.Message{ID: core.MessageID(uint64(c.node)<<32 | c.seq), Origin: c.node})
	}
}

// repOutcome is one repetition of a workload: its timings, its operations
// and the deterministic outcome the output check compares.
type repOutcome struct {
	traced    bool
	warmup    bool    // checked, not timed
	setupS    float64 // deployment, graphs, channel, evaluator, nodes, engine
	wallS     float64 // the timed phase: simulation loop plus output checks
	loopS     float64 // the simulation loop alone (all runners for tables)
	ops       int64   // bcasts issued (runner calls for tables)
	failed    int64   // ack deadline misses (runner errors for tables)
	signature string
	// counts holds simulated quantities that repeat exactly for a seed;
	// layer holds the traced per-layer measurements.
	counts map[string]float64
	layer  map[string]float64
	trace  *slotTrace // per-slot spans of a traced repetition
}

// simRun is one set-up repetition of a simulation workload.
type simRun struct {
	spec        *simSpec
	horizon     int64
	dep         *topology.Deployment
	fast        *sinr.FastChannel
	eng         *sim.Engine
	rec         *core.Recorder
	ackDeadline int64
	churnSrc    *rng.Source
	trace       *slotTrace // nil when untraced

	deployS, graphsS   float64
	epochs             int
	commitNs, applyNs  int64
	checkS             float64
	memBefore, memLoop runtime.MemStats
}

// setupSim builds a repetition from the seed, which drives the deployment,
// the engine's per-node streams and the churn moves through labelled
// streams.
func setupSim(s *simSpec, seed uint64, horizon int64, traced bool) (*simRun, error) {
	master := rng.New(seed)
	r := &simRun{spec: s, horizon: horizon, churnSrc: master.SplitLabeled(rng.Label("sinrbench/churn"))}
	t0 := time.Now()
	dep, err := s.deploy(master.SplitLabeled(rng.Label("sinrbench/deploy")))
	if err != nil {
		return nil, fmt.Errorf("deployment: %w", err)
	}
	t1 := time.Now()
	strong := dep.StrongGraph()
	dep.ApproxGraph()
	lambda := dep.Lambda()
	t2 := time.Now()
	r.dep = dep
	r.deployS, r.graphsS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()

	ch, err := dep.Channel()
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	r.fast = sinr.NewFastChannel(ch)
	r.rec = core.NewRecorder()
	n := dep.NumNodes()
	k := s.clients
	if k == 0 {
		k = n
	}
	nodes := make([]sim.Node, n)
	if s.decay {
		cfg := decay.DefaultConfig(float64(strong.MaxDegree()+1), core.DefaultParams().EpsAck)
		r.ackDeadline = cfg.AckSlots()
		for i := range nodes {
			node := decay.New(cfg, r.rec)
			if i < k {
				node.SetLayer(&client{})
			}
			nodes[i] = node
		}
	} else {
		cfg := mac.DefaultConfig(lambda, dep.Params.Alpha, core.DefaultParams())
		r.ackDeadline = cfg.AckDeadline()
		for i := range nodes {
			node := mac.New(cfg, r.rec)
			if i < k {
				node.SetLayer(&client{})
			}
			nodes[i] = node
		}
	}
	cfg := sim.Config{Seed: master.SplitLabeled(rng.Label("sinrbench/engine")).Uint64(), Workers: 1, Evaluator: r.fast}
	if s.parallel {
		// Pinned: the adaptive driver decides serial or parallel from a
		// few timed slots at slot 0, a decision that flips between runs on
		// a shared host.
		cfg.Parallel, cfg.PinDriver, cfg.Workers = true, true, 2
	}
	if traced {
		r.trace = newSlotTrace(horizon)
		cfg.Evaluator = &timedEvaluator{FastChannel: r.fast, trace: r.trace}
	}
	r.eng, err = sim.NewEngine(ch, nodes, cfg)
	if err != nil {
		r.fast.Close()
		return nil, fmt.Errorf("engine: %w", err)
	}
	if traced {
		r.trace.eng = r.eng
		r.eng.AddObserver(r.trace)
	}
	return r, nil
}

// loop runs the simulation to the horizon, committing and applying churn
// epochs between legs when the workload churns.
func (r *simRun) loop() error {
	if r.trace != nil {
		runtime.ReadMemStats(&r.memBefore)
		r.trace.mark()
	}
	leg := r.horizon
	if r.spec.churnEvery > 0 {
		leg = r.spec.churnEvery
	}
	for r.eng.Slot() < r.horizon {
		r.eng.Run(min(leg, r.horizon-r.eng.Slot()), nil)
		if r.spec.churnEvery == 0 || r.eng.Slot() >= r.horizon {
			continue
		}
		t0 := time.Now()
		delta := commitJitterEpoch(r.dep, r.spec.churnMoves, r.churnSrc)
		t1 := time.Now()
		if delta != nil {
			if err := r.eng.ApplyEpoch(delta, nil); err != nil {
				return fmt.Errorf("apply epoch: %w", err)
			}
			r.epochs++
		}
		r.commitNs += int64(t1.Sub(t0))
		r.applyNs += int64(time.Since(t1))
		if r.trace != nil {
			r.trace.mark()
		}
	}
	if r.trace != nil {
		runtime.ReadMemStats(&r.memLoop)
	}
	return nil
}

// churnJitter bounds how far one churn move jitters a node.
const churnJitter = 0.5

// commitJitterEpoch moves m distinct random nodes by at most churnJitter
// and commits the epoch. An epoch the unit-distance rule rejects is redrawn
// up to eight times; nil means every draw was rejected and the epoch is
// skipped.
func commitJitterEpoch(d *topology.Deployment, m int, src *rng.Source) *sinr.EpochDelta {
	n := d.NumNodes()
	for attempt := 0; attempt < 8; attempt++ {
		seen := make(map[int]bool, m)
		for len(seen) < min(m, n) {
			id := src.Intn(n)
			if seen[id] {
				continue
			}
			seen[id] = true
			angle := src.Float64() * 2 * math.Pi
			rad := churnJitter * math.Sqrt(src.Float64())
			p := d.Positions[id]
			d.MoveNode(id, geom.Point{X: p.X + rad*math.Cos(angle), Y: p.Y + rad*math.Sin(angle)})
		}
		if delta, err := d.CommitEpoch(); err == nil {
			return delta
		}
	}
	return nil
}

// check runs the absMAC checkers over the trace, verifies the invariants
// that hold for every seed and hashes the outcome into a signature.
func (r *simRun) check(out *repOutcome) error {
	// Under the parallel driver the recorder's order within a slot depends
	// on scheduling, so the trace is put in a canonical order first.
	events := r.rec.Events()
	slices.SortFunc(events, func(a, b core.Event) int {
		return cmp.Or(cmp.Compare(a.Slot, b.Slot), cmp.Compare(a.Node, b.Node),
			cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Msg.ID, b.Msg.ID))
	})
	strong, approx := r.dep.StrongGraph(), r.dep.ApproxGraph()
	horizon := r.eng.Slot()
	acks := core.CheckAcks(events, strong)
	prog := core.MeasureProgress(events, strong, approx, horizon)
	dl := core.CheckDeadlines(events, strong, r.ackDeadline, r.ackDeadline, horizon)

	st := r.eng.Stats()
	if st.Slots != r.horizon {
		return fmt.Errorf("simulated %d slots, want %d", st.Slots, r.horizon)
	}
	var kinds [core.EventAbort + 1]int64
	bcasts := make(map[core.MessageID]core.Event)
	for _, ev := range events {
		if ev.Kind < core.EventBcast || ev.Kind > core.EventAbort {
			return fmt.Errorf("event of unknown kind %v", ev.Kind)
		}
		kinds[ev.Kind]++
		if ev.Kind == core.EventBcast {
			bcasts[ev.Msg.ID] = ev
		}
	}
	// A message can be received in the slot it was broadcast in, so an
	// earlier bcast is one in the same slot or before.
	for _, ev := range events {
		if ev.Kind == core.EventBcast {
			continue
		}
		b, ok := bcasts[ev.Msg.ID]
		if !ok || b.Slot > ev.Slot {
			return fmt.Errorf("%v of message %#x at node %d slot %d names no earlier bcast", ev.Kind, ev.Msg.ID, ev.Node, ev.Slot)
		}
		if ev.Kind == core.EventAck && ev.Node != b.Node {
			return fmt.Errorf("ack of message %#x at node %d, broadcast by node %d", ev.Msg.ID, ev.Node, b.Node)
		}
	}
	if kinds[core.EventAck] > kinds[core.EventBcast] {
		return fmt.Errorf("%d acks for %d bcasts", kinds[core.EventAck], kinds[core.EventBcast])
	}

	h := newSigHash()
	h.ints(st.Slots, st.Transmissions, st.Receptions)
	h.ints(kinds[:]...)
	for _, ev := range events {
		h.ints(ev.Slot, int64(ev.Node), int64(ev.Kind), int64(ev.Msg.ID))
	}
	h.ints(int64(acks.Acked), int64(acks.Unacked), int64(acks.Aborted), int64(acks.Violations), acks.MaxLatency)
	h.floats(acks.MeanLatency)
	h.ints(int64(prog.Satisfied), int64(prog.Unsatisfied), prog.MaxLatency)
	h.floats(prog.MeanLatency)
	h.ints(int64(dl.Bcasts), int64(dl.Aborted), int64(dl.LateAcks), int64(dl.NeverAcked),
		int64(dl.NiceViolations), int64(dl.ProgressWindows), int64(dl.ProgressMisses))
	out.signature = h.sum()

	out.ops = int64(dl.Bcasts)
	out.failed = int64(dl.AckMisses)
	slots := float64(st.Slots)
	out.counts = map[string]float64{
		"core.events_per_slot":        float64(len(events)) / slots,
		"core.acks_per_kslot":         float64(acks.Acked) * 1000 / slots,
		"core.ack_latency_mean_slots": acks.MeanLatency,
		"core.nice_violations":        float64(dl.NiceViolations),
		"sinr.tx_per_slot":            float64(st.Transmissions) / slots,
		"sinr.rx_per_slot":            float64(st.Receptions) / slots,
	}
	return nil
}

// runSimRep sets up, runs and checks one repetition.
func runSimRep(s *simSpec, seed uint64, horizon int64, traced bool) (repOutcome, error) {
	out := repOutcome{traced: traced}
	t0 := time.Now()
	r, err := setupSim(s, seed, horizon, traced)
	if err != nil {
		return out, err
	}
	defer r.fast.Close()
	t1 := time.Now()
	if err := r.loop(); err != nil {
		return out, err
	}
	t2 := time.Now()
	if err := r.check(&out); err != nil {
		return out, fmt.Errorf("output check: %w", err)
	}
	t3 := time.Now()
	out.setupS = t1.Sub(t0).Seconds()
	out.loopS = t2.Sub(t1).Seconds()
	out.wallS = t3.Sub(t1).Seconds()
	r.checkS = t3.Sub(t2).Seconds()
	if traced {
		out.layer = r.layerMetrics()
		out.layer["sim.slots_per_s"] = float64(horizon) / out.loopS
		out.trace = r.trace
	}
	return out, nil
}

// tablesSkipped is left out of the tables workload: E9-scale alone runs for
// minutes at n = 10⁶ and is covered by macbench's shard cases.
const tablesSkipped = "scale"

// tablesRunners lists the experiment names the tables workload runs, in
// name order.
func tablesRunners() []string {
	var names []string
	for _, name := range exp.Names() {
		if name != tablesSkipped {
			names = append(names, name)
		}
	}
	return names
}

// tablesPasses is how many quick-mode passes over the runners, at seeds
// drawn from the run's seed, one tables repetition times. One pass varies
// by about 8 % with its seed, mostly through E4-decay's random stopping
// time (full sweeps vary from 7 to 15 s); the sum of ten keeps the spread
// across run seeds to a few percent.
const tablesPasses = 10

// tablesSetups is how often a tables repetition times its set-up.
const tablesSetups = 3

// runTablesRep runs the experiment runners in quick mode on two workers:
// set-up is the pass at the run's own seed — the smoke run users make
// before full sweeps — timed tablesSetups times, and the timed phase is
// passes further passes at seeds drawn from the run's seed.
func runTablesRep(seed uint64, passes, setups int) (repOutcome, error) {
	out := repOutcome{layer: map[string]float64{}}
	reg := exp.Registry()
	names := tablesRunners()
	setupS := make([]float64, setups)
	for i := range setupS {
		start := time.Now()
		for _, name := range names {
			if _, err := reg[name](exp.Config{Seed: seed, Workers: 2, Quick: true}); err != nil {
				return out, fmt.Errorf("set-up pass, runner %s: %w", name, err)
			}
		}
		setupS[i] = time.Since(start).Seconds()
	}
	out.setupS = median(setupS)

	src := rng.New(seed).SplitLabeled(rng.Label("sinrbench/tables"))
	h := newSigHash()
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		passSeed := src.Uint64()
		for _, name := range names {
			out.ops++
			start := time.Now()
			table, err := reg[name](exp.Config{Seed: passSeed, Workers: 2, Quick: true})
			out.layer["exp."+name+"_s"] += time.Since(start).Seconds()
			if err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "sinrbench: tables: runner %s at seed %d: %v\n", name, passSeed, err)
				continue
			}
			h.write([]byte(table.Format()))
		}
	}
	out.wallS = time.Since(t0).Seconds()
	out.loopS = out.wallS
	out.signature = h.sum()
	if out.failed > 0 {
		return out, fmt.Errorf("%d of %d runner calls failed", out.failed, out.ops)
	}
	return out, nil
}

// sigHash hashes a run's deterministic outcome.
type sigHash struct {
	h   hash.Hash
	buf [8]byte
}

func newSigHash() *sigHash { return &sigHash{h: sha256.New()} }

func (s *sigHash) write(p []byte) { s.h.Write(p) }

func (s *sigHash) ints(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(s.buf[:], uint64(v))
		s.h.Write(s.buf[:])
	}
}

func (s *sigHash) floats(vs ...float64) {
	for _, v := range vs {
		s.ints(int64(math.Float64bits(v)))
	}
}

func (s *sigHash) sum() string { return hex.EncodeToString(s.h.Sum(nil)[:16]) }
