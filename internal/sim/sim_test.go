package sim

import (
	"fmt"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

// Frame kinds used by the test automata.
var (
	beaconKind = RegisterFrameKind("test.beacon")
	randKind   = RegisterFrameKind("test.rand")
)

// beaconNode transmits a beacon frame every period slots (starting at
// slot offset) and records every frame it receives.
type beaconNode struct {
	id       int
	src      *rng.Source
	period   int64
	offset   int64
	sent     int
	received []int // sender ids in order of reception
}

func (b *beaconNode) Init(id int, src *rng.Source) {
	b.id = id
	b.src = src
}

func (b *beaconNode) Tick(slot int64, f *Frame) bool {
	if b.period > 0 && slot%b.period == b.offset {
		b.sent++
		f.Kind = beaconKind
		return true
	}
	return false
}

func (b *beaconNode) Receive(slot int64, f *Frame) {
	b.received = append(b.received, f.From)
}

// randomNode transmits with a fixed probability each slot, exercising the
// per-node random source.
type randomNode struct {
	id       int
	src      *rng.Source
	p        float64
	sent     int
	received int
}

func (r *randomNode) Init(id int, src *rng.Source) { r.id, r.src = id, src }

func (r *randomNode) Tick(slot int64, f *Frame) bool {
	if r.src.Bernoulli(r.p) {
		r.sent++
		f.Kind = randKind
		return true
	}
	return false
}

func (r *randomNode) Receive(slot int64, f *Frame) { r.received++ }

func twoNodeChannel(t *testing.T, d float64) *sinr.Channel {
	t.Helper()
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), []geom.Point{{X: 0, Y: 0}, {X: d, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestNewEngineValidation(t *testing.T) {
	ch := twoNodeChannel(t, 5)
	if _, err := NewEngine(nil, nil, Config{}); err == nil {
		t.Fatal("nil channel accepted")
	}
	if _, err := NewEngine(ch, []Node{&beaconNode{}}, Config{}); err == nil {
		t.Fatal("node count mismatch accepted")
	}
	if _, err := NewEngine(ch, []Node{&beaconNode{}, nil}, Config{}); err == nil {
		t.Fatal("nil node accepted")
	}
}

func TestSingleTransmissionDelivered(t *testing.T) {
	ch := twoNodeChannel(t, 5)
	sender := &beaconNode{period: 4, offset: 0}
	listener := &beaconNode{}
	eng, err := NewEngine(ch, []Node{sender, listener}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(8, nil)
	if sender.sent != 2 {
		t.Fatalf("sender transmitted %d times, want 2", sender.sent)
	}
	if len(listener.received) != 2 || listener.received[0] != 0 {
		t.Fatalf("listener received %v, want two frames from node 0", listener.received)
	}
	st := eng.Stats()
	if st.Slots != 8 || st.Transmissions != 2 || st.Receptions != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	ch := twoNodeChannel(t, 50)
	sender := &beaconNode{period: 1, offset: 0}
	listener := &beaconNode{}
	eng, err := NewEngine(ch, []Node{sender, listener}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(10, nil)
	if len(listener.received) != 0 {
		t.Fatalf("out-of-range listener received %v", listener.received)
	}
}

func TestHalfDuplexInEngine(t *testing.T) {
	// Both nodes transmit in the same slots; neither must ever receive.
	ch := twoNodeChannel(t, 5)
	a := &beaconNode{period: 2, offset: 0}
	b := &beaconNode{period: 2, offset: 0}
	eng, err := NewEngine(ch, []Node{a, b}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(10, nil)
	if len(a.received) != 0 || len(b.received) != 0 {
		t.Fatalf("concurrent transmitters received frames: %v %v", a.received, b.received)
	}
}

func TestAlternatingTransmitters(t *testing.T) {
	ch := twoNodeChannel(t, 5)
	a := &beaconNode{period: 2, offset: 0}
	b := &beaconNode{period: 2, offset: 1}
	eng, err := NewEngine(ch, []Node{a, b}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(10, nil)
	if len(a.received) != 5 || len(b.received) != 5 {
		t.Fatalf("alternating schedule delivered %d/%d frames, want 5/5", len(a.received), len(b.received))
	}
}

func TestFrameFromFilledByEngine(t *testing.T) {
	ch := twoNodeChannel(t, 5)
	a := &beaconNode{period: 1, offset: 0}
	b := &beaconNode{}
	eng, err := NewEngine(ch, []Node{a, b}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	if len(b.received) != 1 || b.received[0] != 0 {
		t.Fatalf("receiver saw %v, want sender id 0 set by engine", b.received)
	}
}

func TestRunStopCondition(t *testing.T) {
	ch := twoNodeChannel(t, 5)
	a := &beaconNode{period: 1, offset: 0}
	b := &beaconNode{}
	eng, err := NewEngine(ch, []Node{a, b}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ran, stopped := eng.Run(100, func() bool { return len(b.received) >= 3 })
	if !stopped {
		t.Fatal("stop condition not reached")
	}
	if ran != 3 {
		t.Fatalf("ran %d slots, want 3", ran)
	}
	// A stop condition that already holds runs zero slots.
	ran, stopped = eng.Run(100, func() bool { return true })
	if ran != 0 || !stopped {
		t.Fatalf("pre-satisfied stop ran %d slots, stopped=%v", ran, stopped)
	}
	// Without a stop condition Run simulates exactly maxSlots.
	ran, stopped = eng.Run(7, nil)
	if ran != 7 || stopped {
		t.Fatalf("unconditional run: ran=%d stopped=%v", ran, stopped)
	}
}

func TestObserverSeesTraffic(t *testing.T) {
	ch := twoNodeChannel(t, 5)
	a := &beaconNode{period: 2, offset: 0}
	b := &beaconNode{}
	eng, err := NewEngine(ch, []Node{a, b}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var slots []int64
	var totalTx, totalRx int
	eng.AddObserver(ObserverFunc(func(slot int64, tx []int, rec []sinr.Reception) {
		slots = append(slots, slot)
		totalTx += len(tx)
		for _, r := range rec {
			if r.Sender >= 0 {
				totalRx++
			}
		}
	}))
	eng.Run(6, nil)
	if len(slots) != 6 || slots[0] != 0 || slots[5] != 5 {
		t.Fatalf("observer slots = %v", slots)
	}
	if totalTx != 3 || totalRx != 3 {
		t.Fatalf("observer saw tx=%d rx=%d, want 3/3", totalTx, totalRx)
	}
}

// engineSeed is the rng seed shared by every random-scenario engine below:
// executions built from the same topology seed are only comparable when
// their engines also share this seed.
const engineSeed = 99

// scenarioChannel builds an n-node random deployment drawn from the
// topology seed.
func scenarioChannel(t *testing.T, n int, seed uint64) *sinr.Channel {
	t.Helper()
	src := rng.New(seed)
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 40, Y: src.Float64() * 40}
	}
	ch, err := sinr.NewChannel(sinr.DefaultParams(12), pos)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// buildScenario builds an engine over the scenarioChannel deployment with
// the given config; fast selects the fast evaluator instead of the naive
// reference path.
func buildScenario(t *testing.T, n int, seed uint64, fast bool, cfg Config) ([]*randomNode, *Engine) {
	t.Helper()
	ch := scenarioChannel(t, n, seed)
	if fast {
		cfg.Evaluator = sinr.NewFastChannel(ch)
	}
	nodes := make([]*randomNode, n)
	ifaces := make([]Node, n)
	for i := range nodes {
		nodes[i] = &randomNode{p: 0.2}
		ifaces[i] = nodes[i]
	}
	eng, err := NewEngine(ch, ifaces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, eng
}

// buildRandomScenario builds an n-node random deployment with random
// transmitter nodes on the naive reference path.
func buildRandomScenario(t *testing.T, n int, seed uint64) ([]*randomNode, *Engine) {
	t.Helper()
	return buildScenario(t, n, seed, false, Config{Seed: engineSeed})
}

func TestDeterministicReplay(t *testing.T) {
	aNodes, aEng := buildRandomScenario(t, 40, 17)
	bNodes, bEng := buildRandomScenario(t, 40, 17)
	aEng.Run(300, nil)
	bEng.Run(300, nil)
	for i := range aNodes {
		if aNodes[i].sent != bNodes[i].sent || aNodes[i].received != bNodes[i].received {
			t.Fatalf("replay diverged at node %d", i)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	ch := twoNodeChannel(t, 5)
	a := &beaconNode{}
	b := &beaconNode{}
	eng, err := NewEngine(ch, []Node{a, b}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Channel() != ch {
		t.Fatal("Channel accessor mismatch")
	}
	if eng.Node(0) != Node(a) || eng.Node(1) != Node(b) {
		t.Fatal("Node accessor mismatch")
	}
	if eng.Slot() != 0 {
		t.Fatal("fresh engine slot != 0")
	}
	eng.Step()
	if eng.Slot() != 1 {
		t.Fatal("slot did not advance")
	}
}

// TestResetReplaysFreshEngine is the determinism contract Engine.Reset is
// built on: an engine reset with new nodes and a seed must replay the exact
// execution a freshly constructed engine would produce, for both evaluator
// paths.
func TestResetReplaysFreshEngine(t *testing.T) {
	for _, fast := range []bool{false, true} {
		name := "naive"
		if fast {
			name = "fast"
		}
		t.Run(name, func(t *testing.T) {
			// Reference: a fresh engine.
			freshNodes, freshEng := buildScenario(t, 50, 11, fast, Config{Seed: engineSeed})
			freshEng.Run(150, nil)

			// Reused: run an unrelated execution first, then Reset.
			_, eng := buildScenario(t, 50, 11, fast, Config{Seed: 12345})
			eng.AddObserver(ObserverFunc(func(int64, []int, []sinr.Reception) {}))
			eng.Run(40, nil)
			reNodes := make([]*randomNode, 50)
			ifaces := make([]Node, 50)
			for i := range reNodes {
				reNodes[i] = &randomNode{p: 0.2}
				ifaces[i] = reNodes[i]
			}
			if err := eng.Reset(ifaces, engineSeed); err != nil {
				t.Fatal(err)
			}
			if eng.Slot() != 0 || eng.Stats() != (Stats{}) {
				t.Fatalf("Reset left slot=%d stats=%+v", eng.Slot(), eng.Stats())
			}
			eng.Run(150, nil)

			if freshEng.Stats() != eng.Stats() {
				t.Fatalf("stats diverged after Reset: fresh %+v vs reset %+v", freshEng.Stats(), eng.Stats())
			}
			for i := range freshNodes {
				if freshNodes[i].sent != reNodes[i].sent || freshNodes[i].received != reNodes[i].received {
					t.Fatalf("node %d diverged: fresh sent=%d recv=%d, reset sent=%d recv=%d",
						i, freshNodes[i].sent, freshNodes[i].received, reNodes[i].sent, reNodes[i].received)
				}
			}
		})
	}
}

func TestResetValidation(t *testing.T) {
	_, eng := buildScenario(t, 10, 3, false, Config{Seed: 1})
	if err := eng.Reset(make([]Node, 9), 1); err == nil {
		t.Fatal("Reset accepted a node-count mismatch")
	}
	nodes := make([]Node, 10)
	for i := range nodes {
		nodes[i] = &randomNode{p: 0.1}
	}
	nodes[7] = nil
	if err := eng.Reset(nodes, 1); err == nil {
		t.Fatal("Reset accepted a nil node")
	}
}

func TestManyNodesThroughput(t *testing.T) {
	// Smoke test: a larger deployment with random transmitters makes some
	// progress (receptions happen) and no invariants trip.
	nodes, eng := buildRandomScenario(t, 150, 23)
	eng.Run(200, nil)
	totalRx := 0
	for _, n := range nodes {
		totalRx += n.received
	}
	if totalRx == 0 {
		t.Fatal("no receptions in 200 slots of random traffic")
	}
	if eng.Stats().Receptions != int64(totalRx) {
		t.Fatalf("stats receptions %d != node total %d", eng.Stats().Receptions, totalRx)
	}
}

func ExampleEngine() {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), pos)
	if err != nil {
		panic(err)
	}
	sender := &beaconNode{period: 2, offset: 0}
	listener := &beaconNode{}
	eng, err := NewEngine(ch, []Node{sender, listener}, Config{Seed: 1})
	if err != nil {
		panic(err)
	}
	eng.Run(10, nil)
	fmt.Println(len(listener.received))
	// Output: 5
}

func BenchmarkEngineStep200Nodes(b *testing.B) {
	src := rng.New(3)
	pos := make([]geom.Point, 200)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 60, Y: src.Float64() * 60}
	}
	ch, err := sinr.NewChannel(sinr.DefaultParams(12), pos)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]Node, 200)
	for i := range nodes {
		nodes[i] = &randomNode{p: 0.1}
	}
	eng, err := NewEngine(ch, nodes, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// TestEvaluatorValidation checks that a mismatched evaluator is rejected and
// that the default evaluator is the channel itself.
func TestEvaluatorValidation(t *testing.T) {
	ch := twoNodeChannel(t, 5)
	other, err := sinr.NewChannel(sinr.DefaultParams(10), []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(ch, []Node{&beaconNode{}, &beaconNode{}}, Config{Evaluator: sinr.NewFastChannel(other)}); err == nil {
		t.Fatal("evaluator over a different deployment accepted")
	}
	// Same node count but a different channel object is also rejected.
	sameSize := twoNodeChannel(t, 7)
	if _, err := NewEngine(ch, []Node{&beaconNode{}, &beaconNode{}}, Config{Evaluator: sinr.NewFastChannel(sameSize)}); err == nil {
		t.Fatal("evaluator wrapping a different same-size channel accepted")
	}
	eng, err := NewEngine(ch, []Node{&beaconNode{}, &beaconNode{}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Evaluator() != sinr.ChannelEvaluator(ch) {
		t.Fatal("default evaluator is not the naive channel")
	}
	fast := sinr.NewFastChannel(ch)
	eng, err = NewEngine(ch, []Node{&beaconNode{}, &beaconNode{}}, Config{Evaluator: fast})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Evaluator() != sinr.ChannelEvaluator(fast) {
		t.Fatal("explicit evaluator not selected")
	}
}

// TestRegisterFrameKind pins the interning contract: one kind per name,
// stable on re-registration, zero reserved, names recoverable.
func TestRegisterFrameKind(t *testing.T) {
	a := RegisterFrameKind("test.kind.a")
	b := RegisterFrameKind("test.kind.b")
	if a == 0 || b == 0 {
		t.Fatal("registered kind collided with the reserved zero kind")
	}
	if a == b {
		t.Fatal("distinct names interned to the same kind")
	}
	if again := RegisterFrameKind("test.kind.a"); again != a {
		t.Fatalf("re-registering returned %v, want %v", again, a)
	}
	if got := a.String(); got != "test.kind.a" {
		t.Fatalf("String() = %q", got)
	}
	if RegisterFrameKind("") != 0 {
		t.Fatal("empty name did not map to the reserved kind")
	}
	var zero FrameKind
	if zero.String() != "<none>" {
		t.Fatalf("zero kind String() = %q", zero.String())
	}
}

// frameProbe records the frame pointers handed to it.
type frameProbe struct {
	id      int
	tickPtr []*Frame
	rcvPtr  []*Frame
	period  int64
}

func (p *frameProbe) Init(id int, src *rng.Source) { p.id = id }

func (p *frameProbe) Tick(slot int64, f *Frame) bool {
	p.tickPtr = append(p.tickPtr, f)
	if p.period > 0 && slot%p.period == 0 {
		f.Kind = beaconKind
		return true
	}
	return false
}

func (p *frameProbe) Receive(slot int64, f *Frame) { p.rcvPtr = append(p.rcvPtr, f) }

// TestPooledFrameLifecycle pins the frame-pool contract: every Tick of a
// node sees the same pooled frame, a receiver is handed the sender's pooled
// frame (not a copy), and the engine fills in From.
func TestPooledFrameLifecycle(t *testing.T) {
	ch := twoNodeChannel(t, 5)
	sender := &frameProbe{period: 1}
	listener := &frameProbe{}
	eng, err := NewEngine(ch, []Node{sender, listener}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(4, nil)
	for i, f := range sender.tickPtr[1:] {
		if f != sender.tickPtr[0] {
			t.Fatalf("sender's pooled frame changed identity at slot %d", i+1)
		}
	}
	if len(listener.rcvPtr) != 4 {
		t.Fatalf("listener received %d frames, want 4", len(listener.rcvPtr))
	}
	for _, f := range listener.rcvPtr {
		if f != sender.tickPtr[0] {
			t.Fatal("receiver was not handed the sender's pooled frame")
		}
		if f.From != 0 || f.Kind != beaconKind {
			t.Fatalf("delivered frame = %+v, want From=0 Kind=beacon", f)
		}
	}
}

// TestEngineStepAllocFree is the slot-pipeline allocation budget: once the
// engine and evaluator are warm, a steady-state Step — tick, evaluate,
// deliver — performs zero heap allocations, with the evaluator's receiver
// scan on one worker and on its pool, on its dense, sparse and sharded
// paths.
func TestEngineStepAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		p       float64 // per-slot transmit probability (sets tx density)
		shards  int     // FastOptions.Shards; 0 is the default count
	}{
		{"sequential/dense", 1, 0.5, 0},
		{"sequential/sparse", 1, 0.02, 0},
		// Four pinned workers run the parallel evaluator's pool at any
		// GOMAXPROCS, so the pool's Run hand-off is held to the zero-alloc
		// budget.
		{"parallel-pinned/sparse", 4, 0.02, 0},
		{"parallel-pinned/dense", 4, 0.5, 0},
		{"sequential/shard", 1, 0.5, 4},
		{"parallel-pinned/shard", 4, 0.5, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(31)
			pos := make([]geom.Point, 400)
			for i := range pos {
				pos[i] = geom.Point{X: src.Float64() * 90, Y: src.Float64() * 90}
			}
			ch, err := sinr.NewChannel(sinr.DefaultParams(12), pos)
			if err != nil {
				t.Fatal(err)
			}
			fast := sinr.NewFastChannel(ch, sinr.FastOptions{Shards: tc.shards})
			defer fast.Close()
			nodes := make([]Node, len(pos))
			for i := range nodes {
				nodes[i] = &randomNode{p: tc.p}
			}
			eng, err := NewEngine(ch, nodes, Config{
				Seed: 3, Workers: tc.workers,
				Evaluator: fast,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.Run(30, nil) // warm the pool, scratch and tx buffers
			allocs := testing.AllocsPerRun(50, eng.Step)
			if allocs != 0 {
				t.Errorf("steady-state Step allocates %.1f objects per slot, want 0", allocs)
			}
		})
	}
}
