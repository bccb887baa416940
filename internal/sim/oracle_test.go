package sim_test

// The engine oracle: every configuration of the slot pipeline (evaluator,
// shard count and dispatch pin, worker count, fault plan, mobility epochs,
// Step loop or Run legs) must reproduce bit for bit the same scenario on the
// naive evaluator (sinr.Channel) under a serial Step loop. TestEngineOracle
// runs a fixed table of scenarios and FuzzEngineOracle draws them; the fuzz
// target also feeds invalid epochs and fault plans, which must be rejected.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/fault"
	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
)

// oracleSlots is the length of every scenario, split evenly into the legs
// between its epochs.
const oracleSlots = 160

// The scenario axes; the fuzz target draws an index into each. An empty
// pin is the adaptive dispatch and an empty plan installs no fault hook.
var (
	layouts = []string{"uniform", "line", "clusters", "outlier"}
	// "matrix" is the fast evaluator with default options, named after the
	// n×n power-matrix regime small deployments ran before the cell
	// lattice served every size; the name keeps the rows' test ids stable.
	evals        = []string{"naive", "matrix", "lattice1", "lattice4", "lattice8"}
	pins         = []string{"", "sparse", "certified", "dense"}
	plans        = []string{"", "zero", "rich"}
	workerCounts = []int{1, 2, 4}
)

// scenario is one engine execution.
type scenario struct {
	seed    uint64  // deployment, node, fault-plan and epoch seed
	n       int     // node count, 1..96
	layout  string  // uniform, a spacing-2 line, four clusters, or two clusters offset apart
	offset  float64 // cluster distance of the outlier layout
	eval    string  // the naive reference, the fast evaluator's defaults ("matrix"), or the lattice at 1, 4 or 8 shards
	pin     string  // the fast evaluator's dispatch, set through FastOptions
	workers int     // sim.Config.Workers
	plan    string  // no hook, a zero-rate plan or richPlan
	epochs  int     // move epochs between the legs, 0..3
	run     bool    // one Run call per leg instead of a Step loop
}

func (sc scenario) String() string {
	layout := sc.layout
	if sc.offset != 0 {
		layout += fmt.Sprintf("%g", sc.offset)
	}
	return fmt.Sprintf("%s/n%d/seed%d/%s/pin=%s/w%d/plan=%s/e%d/run=%v", layout, sc.n, sc.seed,
		sc.eval, cmp.Or(sc.pin, "auto"), sc.workers, cmp.Or(sc.plan, "none"), sc.epochs, sc.run)
}

// reference is the scenario the oracle holds sc to: the same deployment,
// nodes and epochs on the naive evaluator under a serial Step loop. A
// zero-rate plan must leave the execution bit-identical to running with no
// hook at all, so its reference has none.
func (sc scenario) reference() scenario {
	ref := sc
	ref.eval, ref.pin, ref.workers, ref.run = "naive", "", 1, false
	if ref.plan == "zero" {
		ref.plan = ""
	}
	return ref
}

var oracleKind = sim.RegisterFrameKind("oracle.chatty")

// chattyNode transmits with a fixed probability per slot and folds every
// delivery it receives into its counters.
type chattyNode struct {
	id  int
	src *rng.Source
	p   float64
	counters
}

// counters is the comparable per-node traffic record. digest folds the
// slot, sender, kind and message id of every delivery, so a corrupted,
// mutated or misrouted frame shows even when the counts agree.
type counters struct {
	sent, received, noise int
	digest                uint64
}

func (c *chattyNode) Init(id int, src *rng.Source) { c.id, c.src = id, src }

func (c *chattyNode) Tick(slot int64, f *sim.Frame) bool {
	if !c.src.Bernoulli(c.p) {
		return false
	}
	c.sent++
	f.Kind = oracleKind
	f.Msg = core.Message{ID: core.MessageID(uint64(c.id+1)<<32 | uint64(slot+1)), Origin: c.id}
	return true
}

func (c *chattyNode) Receive(slot int64, f *sim.Frame) {
	c.received++
	if f.Kind == fault.NoiseFrameKind {
		c.noise++
	}
	c.digest = (c.digest*31+uint64(slot))*31 + uint64(f.From)<<32 ^ uint64(f.Kind)<<16 ^ uint64(f.Msg.ID)
}

// richPlan exercises every fault kind at once.
func richPlan(seed uint64) fault.Plan {
	return fault.Plan{Seed: seed, CrashRate: 0.2, CrashWindow: 150, RecoverRate: 0.5, RecoverDelay: 40,
		JamRate: 0.3, JamPower: 3, DropRate: 0.05, CorruptRate: 0.1,
		ByzantineFraction: 0.2, SpamRate: 0.3, MutateRate: 0.5,
		Mutate: func(slot int64, node int, f *sim.Frame, src *rng.Source) { f.Msg.ID ^= 0xdead }}
}

// positions lays out the scenario's deployment.
func (sc scenario) positions() []geom.Point {
	src := rng.New(sc.seed)
	pos := make([]geom.Point, sc.n)
	switch sc.layout {
	case "uniform":
		side := 4 * math.Sqrt(float64(sc.n))
		for i := range pos {
			pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
		}
	case "line":
		for i := range pos {
			pos[i] = geom.Point{X: 2 * float64(i)}
		}
	case "clusters":
		var centres [4]geom.Point
		for c := range centres {
			centres[c] = geom.Point{X: src.Float64() * 80, Y: src.Float64() * 80}
		}
		for i := range pos {
			c := centres[i%4]
			pos[i] = geom.Point{X: c.X + 6*src.Float64(), Y: c.Y + 6*src.Float64()}
		}
	case "outlier":
		// The first half uniform in a square of density ~1/9, the second
		// half the same shape shifted by offset along x.
		half := (sc.n + 1) / 2
		side := 3 * math.Sqrt(float64(half))
		for i := range pos[:half] {
			pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
		}
		for i := half; i < sc.n; i++ {
			pos[i] = geom.Point{X: pos[i-half].X + sc.offset, Y: pos[i-half].Y}
		}
	}
	return pos
}

// moves draws the scenario's epochs from the initial positions. Each epoch
// jitters a quarter of the nodes by up to half a range (some cross cells),
// sends one node anywhere in the deployment's bounding box widened by half
// its extent (it may leave the cell lattice), and returns one node to its
// initial position.
func (sc scenario) moves(pos []geom.Point, rangeR float64) []*sinr.EpochDelta {
	src := rng.New(sc.seed ^ 0x6d6f766573)
	box := geom.BoundingBox(pos)
	w, h := box.Max.X-box.Min.X, box.Max.Y-box.Min.Y
	cur := slices.Clone(pos)
	deltas := make([]*sinr.EpochDelta, 0, sc.epochs)
	for e := 0; e < sc.epochs; e++ {
		prev := slices.Clone(cur)
		for k := 0; k < max(1, sc.n/4); k++ {
			id := src.Intn(sc.n)
			cur[id].X += rangeR * (src.Float64() - 0.5)
			cur[id].Y += rangeR * (src.Float64() - 0.5)
		}
		cur[src.Intn(sc.n)] = geom.Point{X: box.Min.X - w/4 + 1.5*w*src.Float64(), Y: box.Min.Y - h/4 + 1.5*h*src.Float64()}
		id := src.Intn(sc.n)
		cur[id] = pos[id]
		d := &sinr.EpochDelta{Positions: slices.Clone(cur)}
		for i := range cur {
			if cur[i] != prev[i] {
				d.Dirty = append(d.Dirty, i)
			}
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// slotRow is one slot as the engine's observer saw it.
type slotRow struct {
	tx   []int
	recs []sinr.Reception
}

// outcome is everything the oracle compares.
type outcome struct {
	trace  []slotRow
	stats  sim.Stats
	faults fault.Stats
	nodes  []counters
}

// execute runs the scenario and returns the engine for further probing.
// A fast evaluator is closed when the test ends.
func (sc scenario) execute(t testing.TB) (outcome, *sim.Engine) {
	t.Helper()
	params := sinr.DefaultParams(10)
	pos := sc.positions()
	ch, err := sinr.NewChannel(params, pos)
	if err != nil {
		t.Fatalf("%v: %v", sc, err)
	}
	cfg := sim.Config{Seed: sc.seed, Workers: sc.workers}
	if sc.eval != "naive" {
		opts := map[string]sinr.FastOptions{"sparse": {SparseFactor: 1},
			"certified": {SparseFactor: -1, BoundsFactor: 1}, "dense": {SparseFactor: -1, BoundsFactor: -1}}[sc.pin]
		opts.Shards = map[string]int{"lattice1": 1, "lattice4": 4, "lattice8": 8}[sc.eval]
		fast := sinr.NewFastChannel(ch, opts)
		t.Cleanup(fast.Close)
		cfg.Evaluator = fast
	}
	chatty := make([]*chattyNode, sc.n)
	nodes := make([]sim.Node, sc.n)
	for i := range nodes {
		chatty[i] = &chattyNode{p: 0.2}
		nodes[i] = chatty[i]
	}
	var inj *fault.Injector
	if sc.plan != "" {
		plan := fault.Plan{Seed: sc.seed}
		if sc.plan == "rich" {
			plan = richPlan(sc.seed)
		}
		if inj, err = fault.NewInjector(plan, sc.n); err != nil {
			t.Fatal(err)
		}
		nodes = inj.WrapNodes(nodes)
		cfg.Faults = inj
	}
	eng, err := sim.NewEngine(ch, nodes, cfg)
	if err != nil {
		t.Fatalf("%v: %v", sc, err)
	}
	var out outcome
	eng.AddObserver(sim.ObserverFunc(func(slot int64, tx []int, recs []sinr.Reception) {
		out.trace = append(out.trace, slotRow{slices.Clone(tx), slices.Clone(recs)})
	}))
	deltas := sc.moves(pos, params.Range())
	legSlots := int64(oracleSlots / (sc.epochs + 1))
	for leg := 0; leg <= sc.epochs; leg++ {
		if leg > 0 {
			if err := eng.ApplyEpoch(deltas[leg-1], nil); err != nil {
				t.Fatalf("%v: epoch %d: %v", sc, leg, err)
			}
		}
		if sc.run {
			if ran, _ := eng.Run(legSlots, nil); ran != legSlots {
				t.Errorf("%v: Run ran %d slots, want %d", sc, ran, legSlots)
			}
		} else {
			for s := int64(0); s < legSlots; s++ {
				eng.Step()
			}
		}
	}
	if sc.epochs > 0 && !slices.Equal(eng.Channel().Positions(), deltas[sc.epochs-1].Positions) {
		t.Errorf("%v: the engine does not run on the last epoch's positions", sc)
	}
	out.stats = eng.Stats()
	if inj != nil {
		out.faults = inj.Stats()
	}
	for i, c := range chatty {
		if c.id != i {
			t.Errorf("%v: node %d initialised as %d", sc, i, c.id)
		}
		out.nodes = append(out.nodes, c.counters)
	}
	return out, eng
}

// diff reports the first difference between got and the reference want.
func (got outcome) diff(want outcome) string {
	if len(got.trace) != len(want.trace) {
		return fmt.Sprintf("%d slots traced, reference %d", len(got.trace), len(want.trace))
	}
	for s, w := range want.trace {
		if g := got.trace[s]; !slices.Equal(g.tx, w.tx) || !slices.Equal(g.recs, w.recs) {
			return fmt.Sprintf("slot %d: transmitters %v decode %v, reference %v decode %v", s, g.tx, g.recs, w.tx, w.recs)
		}
	}
	for i, w := range want.nodes {
		if got.nodes[i] != w {
			return fmt.Sprintf("node %d counters %+v, reference %+v", i, got.nodes[i], w)
		}
	}
	if got.stats != want.stats || got.faults != want.faults {
		return fmt.Sprintf("stats %+v %+v, reference %+v %+v", got.stats, got.faults, want.stats, want.faults)
	}
	return ""
}

// checkOracle runs sc and its reference, memoised in refs, fails on any
// difference, and returns the engine sc ran on.
func checkOracle(t testing.TB, sc scenario, refs map[scenario]outcome) *sim.Engine {
	t.Helper()
	ref := sc.reference()
	want, ok := refs[ref]
	if !ok {
		want, _ = ref.execute(t)
		refs[ref] = want
	}
	got, eng := sc.execute(t)
	if d := got.diff(want); d != "" {
		t.Fatalf("%v diverges from the naive Step reference: %s", sc, d)
	}
	if sc.plan == "zero" && got.faults != (fault.Stats{}) {
		t.Fatalf("%v: zero-rate plan recorded faults %+v", sc, got.faults)
	}
	return eng
}

// oracleGroups are the table scenarios, grouped by what they pin down:
// together they take every axis through each of its values.
var oracleGroups = []struct {
	name string
	rows []scenario
}{
	{"step-and-run", []scenario{
		{seed: 7, n: 80, layout: "uniform", eval: "matrix", workers: 1},
		{seed: 7, n: 80, layout: "uniform", eval: "matrix", workers: 4, run: true},
	}},
	// Run legs on the reference evaluator itself and on the default fast
	// evaluator.
	{"run-legs", []scenario{
		{seed: 3, n: 24, layout: "line", eval: "naive", workers: 1, epochs: 3, run: true},
		{seed: 3, n: 24, layout: "line", eval: "naive", workers: 4, epochs: 3, run: true},
		{seed: 3, n: 24, layout: "line", eval: "naive", workers: 1, plan: "rich", epochs: 3, run: true},
		{seed: 3, n: 24, layout: "line", eval: "naive", workers: 4, plan: "rich", epochs: 3, run: true},
		{seed: 3, n: 24, layout: "line", eval: "matrix", workers: 1, epochs: 3, run: true},
		{seed: 3, n: 24, layout: "line", eval: "matrix", workers: 4, epochs: 3, run: true},
		{seed: 3, n: 24, layout: "line", eval: "matrix", workers: 1, plan: "rich", epochs: 3, run: true},
		{seed: 3, n: 24, layout: "line", eval: "matrix", workers: 4, plan: "rich", epochs: 3, run: true},
	}},
	{"matrix", []scenario{
		{seed: 9, n: 80, layout: "uniform", eval: "matrix", workers: 4, run: true},
		{seed: 21, n: 70, layout: "uniform", eval: "matrix", workers: 2, run: true},
		{seed: 3, n: 24, layout: "line", eval: "matrix", workers: 2, epochs: 3, run: true},
		{seed: 9, n: 96, layout: "clusters", eval: "matrix", pin: "sparse", workers: 2, epochs: 2},
		{seed: 9, n: 96, layout: "clusters", eval: "matrix", pin: "dense", workers: 4, epochs: 1, run: true},
	}},
	{"lattice", []scenario{
		{seed: 9, n: 80, layout: "uniform", eval: "lattice1", workers: 4, run: true},
		{seed: 9, n: 80, layout: "uniform", eval: "lattice4", pin: "certified", workers: 4, run: true},
		{seed: 9, n: 80, layout: "uniform", eval: "lattice4", pin: "dense", workers: 4, run: true},
		{seed: 9, n: 80, layout: "uniform", eval: "lattice8", workers: 4, run: true},
		{seed: 9, n: 80, layout: "uniform", eval: "lattice8", pin: "sparse", workers: 1},
		{seed: 5, n: 96, layout: "clusters", eval: "lattice4", pin: "certified", workers: 2, epochs: 3},
	}},
	{"lattice-churn", []scenario{
		{seed: 3, n: 24, layout: "line", eval: "lattice1", pin: "certified", workers: 2, epochs: 3, run: true},
		{seed: 11, n: 64, layout: "uniform", eval: "lattice8", workers: 4, epochs: 3},
		{seed: 11, n: 64, layout: "uniform", eval: "lattice4", pin: "dense", workers: 1, epochs: 2, run: true},
	}},
	{"zero-plan", []scenario{
		{seed: 11, n: 50, layout: "uniform", eval: "matrix", workers: 1, plan: "zero", run: true},
		{seed: 11, n: 50, layout: "uniform", eval: "matrix", workers: 4, plan: "zero", run: true},
		{seed: 11, n: 50, layout: "uniform", eval: "lattice4", pin: "certified", workers: 2, plan: "zero", epochs: 1},
	}},
	// richPlan on every evaluator, static and under moves.
	{"faults", []scenario{
		{seed: 5, n: 60, layout: "uniform", eval: "matrix", workers: 1, plan: "rich", run: true},
		{seed: 5, n: 60, layout: "uniform", eval: "matrix", workers: 4, plan: "rich", run: true},
		{seed: 5, n: 60, layout: "uniform", eval: "matrix", workers: 2, plan: "rich", epochs: 3, run: true},
		{seed: 5, n: 60, layout: "uniform", eval: "matrix", workers: 4, plan: "rich", epochs: 3},
		{seed: 5, n: 60, layout: "uniform", eval: "lattice4", pin: "certified", workers: 4, plan: "rich", epochs: 3, run: true},
		{seed: 5, n: 60, layout: "uniform", eval: "lattice8", pin: "sparse", workers: 2, plan: "rich"},
		{seed: 5, n: 60, layout: "uniform", eval: "lattice1", pin: "dense", workers: 1, plan: "rich", epochs: 1},
	}},
	// Outlier geometry: the lattice builds no offset tables; at 3e10 the
	// cell span exceeds the int32 range.
	{"outlier", []scenario{
		{seed: 1, n: 40, layout: "outlier", offset: 1e6, eval: "lattice8", pin: "certified", workers: 4, epochs: 2},
		{seed: 1, n: 40, layout: "outlier", offset: 3e10, eval: "lattice4", workers: 2, plan: "rich", run: true},
		{seed: 1, n: 4, layout: "outlier", offset: 3e10, eval: "lattice1", pin: "dense", workers: 1},
		{seed: 1, n: 40, layout: "outlier", offset: 3e10, eval: "matrix", pin: "sparse", workers: 2, epochs: 1},
	}},
}

// TestEngineOracle holds every table scenario to its naive Step reference,
// and checks that the richPlan references fire every fault kind.
func TestEngineOracle(t *testing.T) {
	refs := map[scenario]outcome{}
	for _, g := range oracleGroups {
		t.Run(g.name, func(t *testing.T) {
			for _, sc := range g.rows {
				t.Run(sc.String(), func(t *testing.T) { checkOracle(t, sc, refs) })
			}
		})
	}
	for ref, out := range refs {
		f := out.faults
		if ref.plan == "rich" && ref.n >= 60 && (f.Crashed == 0 || f.Recovered == 0 || f.JammedSlots == 0 ||
			f.Dropped == 0 || f.Corrupted == 0 || f.ByzantineNodes == 0 || f.SpamFrames == 0 || f.MutatedFrames == 0) {
			t.Errorf("%v: richPlan did not exercise every fault kind: %+v", ref, f)
		}
	}
}

// FuzzEngineOracle draws scenarios and holds each to its naive Step
// reference. It then feeds the engine an epoch with one fuzzed coordinate
// and an out-of-range dirty id, and compiles a fault plan with a fuzzed
// rate: each must be accepted exactly when valid, and rejected with an
// error, never a panic. The decoding caps the node count, epochs and
// workers (the slot count is fixed), and every evaluator is closed.
func FuzzEngineOracle(f *testing.F) {
	add := func(sc scenario, bad float64) {
		f.Add(sc.seed, uint8(sc.n-1), uint8(slices.Index(layouts, sc.layout)), sc.offset,
			uint8(slices.Index(evals, sc.eval)), uint8(slices.Index(pins, sc.pin)),
			uint8(slices.Index(workerCounts, sc.workers)), uint8(slices.Index(plans, sc.plan)),
			uint8(sc.epochs), sc.run, bad)
	}
	add(scenario{seed: 1, n: 4, layout: "outlier", offset: 3e10, eval: "lattice1", pin: "dense", workers: 1}, math.NaN())
	add(scenario{seed: 2, n: 30, layout: "uniform", eval: "lattice4", pin: "certified", workers: 2, plan: "rich", epochs: 3, run: true}, math.Inf(1))
	add(scenario{seed: 3, n: 24, layout: "line", eval: "naive", workers: 1, plan: "rich", epochs: 2, run: true}, 1e300)
	add(scenario{seed: 4, n: 48, layout: "clusters", eval: "matrix", pin: "sparse", workers: 4, plan: "zero", epochs: 1}, 0.5)
	add(scenario{seed: 5, n: 1, layout: "uniform", eval: "lattice8", workers: 4}, -1)
	f.Fuzz(func(t *testing.T, seed uint64, n, layout uint8, offset float64, eval, pin, workers, plan, epochs uint8, run bool, bad float64) {
		if math.IsNaN(offset) || math.IsInf(offset, 0) {
			offset = 1e6
		}
		sc := scenario{
			seed:    seed,
			n:       1 + int(n)%96,
			layout:  layouts[int(layout)%len(layouts)],
			offset:  math.Mod(math.Abs(offset), sinr.MaxCoordinate/2),
			eval:    evals[int(eval)%len(evals)],
			pin:     pins[int(pin)%len(pins)],
			workers: workerCounts[int(workers)%len(workerCounts)],
			plan:    plans[int(plan)%len(plans)],
			epochs:  int(epochs) % 4,
			run:     run,
		}
		eng := checkOracle(t, sc, map[scenario]outcome{})
		pos := eng.Channel().Positions()
		pos[0].X = bad
		err := eng.ApplyEpoch(&sinr.EpochDelta{Dirty: []int{0}, Positions: pos}, nil)
		if valid := math.Abs(bad) <= sinr.MaxCoordinate; valid != (err == nil) {
			t.Fatalf("%v: ApplyEpoch moving node 0 to x = %g returned %v", sc, bad, err)
		}
		if err := eng.ApplyEpoch(&sinr.EpochDelta{Dirty: []int{sc.n}, Positions: pos}, nil); err == nil {
			t.Fatalf("%v: ApplyEpoch accepted dirty id %d of %d nodes", sc, sc.n, sc.n)
		}
		eng.Run(4, nil)
		_, err = fault.NewInjector(fault.Plan{Seed: seed, CrashRate: bad}, sc.n)
		if valid := bad >= 0 && bad <= 1; valid != (err == nil) {
			t.Fatalf("NewInjector with CrashRate %g returned %v", bad, err)
		}
	})
}
