package fault

import (
	"errors"
	"strings"
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
)

var testKind = sim.RegisterFrameKind("fault.test")

// chattyNode transmits with a fixed probability per slot and counts its
// traffic, distinguishing noise (spam) deliveries from protocol ones.
type chattyNode struct {
	id       int
	src      *rng.Source
	p        float64
	sent     int
	received int
	noise    int
}

func (c *chattyNode) Init(id int, src *rng.Source) { c.id, c.src = id, src }

func (c *chattyNode) Tick(slot int64, f *sim.Frame) bool {
	if c.src.Bernoulli(c.p) {
		c.sent++
		f.Kind = testKind
		f.Msg = core.Message{ID: core.MessageID(uint64(c.id+1)<<32 | uint64(slot+1)), Origin: c.id}
		return true
	}
	return false
}

func (c *chattyNode) Receive(slot int64, f *sim.Frame) {
	c.received++
	if f.Kind == NoiseFrameKind {
		c.noise++
	}
}

// panicNode panics in Tick at a fixed slot or on its first Receive.
type panicNode struct {
	chattyNode
	panicTickSlot int64 // panic in Tick at this slot; < 0 disables
	panicOnRecv   bool
}

func (p *panicNode) Tick(slot int64, f *sim.Frame) bool {
	if p.panicTickSlot >= 0 && slot == p.panicTickSlot {
		panic("injected tick panic")
	}
	return p.chattyNode.Tick(slot, f)
}

func (p *panicNode) Receive(slot int64, f *sim.Frame) {
	if p.panicOnRecv {
		panic("injected receive panic")
	}
	p.chattyNode.Receive(slot, f)
}

// counters is the comparable per-node traffic snapshot.
type counters struct{ sent, received, noise int }

// scenario builds an n-node random deployment on the fast evaluator under
// the given plan and returns the underlying chatty automata (unwrapped),
// the engine and the injector.
func scenario(t *testing.T, n int, topoSeed uint64, plan Plan, cfg sim.Config, mutate func(i int) sim.Node) ([]sim.Node, *sim.Engine, *Injector) {
	t.Helper()
	src := rng.New(topoSeed)
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 40, Y: src.Float64() * 40}
	}
	ch, err := sinr.NewChannel(sinr.DefaultParams(12), pos)
	if err != nil {
		t.Fatal(err)
	}
	fast := sinr.NewFastChannel(ch)
	t.Cleanup(fast.Close)
	cfg.Evaluator = fast
	raw := make([]sim.Node, n)
	for i := range raw {
		if mutate != nil {
			raw[i] = mutate(i)
		} else {
			raw[i] = &chattyNode{p: 0.2}
		}
	}
	inner := append([]sim.Node(nil), raw...)
	inj, err := NewInjector(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	eng, err := sim.NewEngine(ch, inj.WrapNodes(raw), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inner, eng, inj
}

// snapshot extracts the per-node counters through the possible panicNode
// embedding.
func snapshot(t *testing.T, nodes []sim.Node) []counters {
	t.Helper()
	out := make([]counters, len(nodes))
	for i, n := range nodes {
		switch v := n.(type) {
		case *chattyNode:
			out[i] = counters{v.sent, v.received, v.noise}
		case *panicNode:
			out[i] = counters{v.sent, v.received, v.noise}
		default:
			t.Fatalf("node %d has unexpected type %T", i, n)
		}
	}
	return out
}

// richPlan exercises every fault kind at once.
func richPlan() Plan {
	return Plan{
		Seed:              42,
		CrashRate:         0.2,
		CrashWindow:       150,
		RecoverRate:       0.5,
		RecoverDelay:      40,
		JamRate:           0.3,
		JamPower:          3,
		DropRate:          0.05,
		CorruptRate:       0.1,
		ByzantineFraction: 0.2,
		SpamRate:          0.3,
		MutateRate:        0.5,
		Mutate: func(slot int64, node int, f *sim.Frame, src *rng.Source) {
			f.Msg.ID ^= 0xdead
		},
	}
}

// TestTickPanicCrashesOnlyThatNode: an injected Tick panic is recovered,
// converted into a crash-stop fault for that node alone, and the run
// completes — at one and four evaluator workers, with identical executions.
func TestTickPanicCrashesOnlyThatNode(t *testing.T) {
	const n, topoSeed, slots, victim = 16, 3, 120, 5
	mk := func(i int) sim.Node {
		if i == victim {
			return &panicNode{chattyNode: chattyNode{p: 0.3}, panicTickSlot: 20}
		}
		return &chattyNode{p: 0.3}
	}
	var refStats sim.Stats
	var refNodes []counters
	for i, cfg := range []sim.Config{
		{Seed: 4, Workers: 1},
		{Seed: 4, Workers: 4},
	} {
		plan := Plan{Seed: 8}
		inner, eng, inj := scenario(t, n, topoSeed, plan, cfg, mk)
		eng.Run(slots, nil)
		if got := eng.Stats().Slots; got != slots {
			t.Fatalf("run did not complete: %d slots", got)
		}
		st := inj.Stats()
		if st.PanicCrashes != 1 {
			t.Fatalf("PanicCrashes = %d, want 1", st.PanicCrashes)
		}
		if !inj.Inert(victim) {
			t.Fatal("panicked node not crash-stopped")
		}
		recs := inj.Panics()
		if len(recs) != 1 || recs[0].Node != victim || recs[0].Phase != "tick" ||
			recs[0].Slot != 20 || len(recs[0].Stack) == 0 {
			t.Fatalf("panic record = %+v", recs)
		}
		got := snapshot(t, inner)
		alive := 0
		for j, c := range got {
			if j != victim && c.sent > 10 {
				alive++
			}
		}
		if alive != n-1 {
			t.Fatalf("only %d/%d survivors kept transmitting", alive, n-1)
		}
		if i == 0 {
			refStats, refNodes = eng.Stats(), got
			continue
		}
		if eng.Stats() != refStats {
			t.Fatalf("panic executions diverged across worker counts: %+v vs %+v", eng.Stats(), refStats)
		}
		for j := range got {
			if got[j] != refNodes[j] {
				t.Fatalf("node %d diverged across worker counts: %+v vs %+v", j, got[j], refNodes[j])
			}
		}
	}
}

// TestReceivePanicConvertsToCrash covers the receive-phase recovery path.
func TestReceivePanicConvertsToCrash(t *testing.T) {
	const n, topoSeed, slots, victim = 12, 3, 200, 4
	plan := Plan{Seed: 8}
	mk := func(i int) sim.Node {
		if i == victim {
			// Never transmits, so its first event is a reception.
			return &panicNode{chattyNode: chattyNode{p: 0}, panicTickSlot: -1, panicOnRecv: true}
		}
		return &chattyNode{p: 0.3}
	}
	_, eng, inj := scenario(t, n, topoSeed, plan, sim.Config{Seed: 4, Workers: 1}, mk)
	eng.Run(slots, nil)
	if eng.Stats().Slots != slots {
		t.Fatalf("run did not complete: %d slots", eng.Stats().Slots)
	}
	st := inj.Stats()
	if st.PanicCrashes != 1 || !inj.Inert(victim) {
		t.Fatalf("receive panic not converted to crash: %+v inert=%v", st, inj.Inert(victim))
	}
	if recs := inj.Panics(); len(recs) != 1 || recs[0].Phase != "receive" {
		t.Fatalf("panic record = %+v", recs)
	}
}

// TestCrashRecoverSchedule pins the crash-recover semantics: a certain
// crash with certain recovery takes every node down exactly once and brings
// it back with its automaton state (sent counter) intact.
func TestCrashRecoverSchedule(t *testing.T) {
	const n, topoSeed, slots = 10, 7, 600
	plan := Plan{Seed: 13, CrashRate: 1, CrashWindow: 100, RecoverRate: 1, RecoverDelay: 50}
	inner, eng, inj := scenario(t, n, topoSeed, plan, sim.Config{Seed: 2, Workers: 1}, nil)
	eng.Run(slots, nil)
	st := inj.Stats()
	if st.Crashed != n || st.Recovered != n {
		t.Fatalf("crash/recover counts = %d/%d, want %d/%d", st.Crashed, st.Recovered, n, n)
	}
	for i, nd := range inner {
		if inj.Inert(i) {
			t.Fatalf("node %d still inert after its recovery window", i)
		}
		if nd.(*chattyNode).sent == 0 {
			t.Fatalf("node %d never transmitted", i)
		}
	}
}

// TestCrashStopSilencesNode: with no recovery, a crashed node stops
// transmitting and receiving for good, and survivors keep running.
func TestCrashStopSilencesNode(t *testing.T) {
	const n, topoSeed = 8, 7
	plan := Plan{Seed: 5, CrashRate: 0.5, CrashWindow: 50}
	inner, eng, inj := scenario(t, n, topoSeed, plan, sim.Config{Seed: 2, Workers: 1}, nil)
	eng.Run(60, nil) // past the crash window
	crashed := make([]int, 0, n)
	for i := range inner {
		if inj.Inert(i) {
			crashed = append(crashed, i)
		}
	}
	if len(crashed) == 0 {
		t.Fatal("no node crashed under CrashRate 0.5")
	}
	before := snapshot(t, inner)
	eng.Run(200, nil)
	after := snapshot(t, inner)
	for _, i := range crashed {
		if after[i] != before[i] {
			t.Fatalf("crashed node %d kept participating: %+v -> %+v", i, before[i], after[i])
		}
	}
	if st := inj.Stats(); st.Recovered != 0 {
		t.Fatalf("crash-stop plan recorded %d recoveries", st.Recovered)
	}
}

// TestByzantineSpam: a fully Byzantine deployment with certain spam fills
// idle slots with noise frames that reach correct receivers as NoiseFrameKind.
func TestByzantineSpam(t *testing.T) {
	const n, topoSeed, slots = 12, 9, 200
	// Not everyone spams every slot: with all nodes transmitting the
	// half-duplex constraint would leave no listeners at all.
	plan := Plan{Seed: 3, ByzantineFraction: 0.5, SpamRate: 0.4}
	inner, eng, inj := scenario(t, n, topoSeed, plan, sim.Config{Seed: 6, Workers: 1}, nil)
	eng.Run(slots, nil)
	st := inj.Stats()
	if st.ByzantineNodes == 0 || st.ByzantineNodes == n {
		t.Fatalf("ByzantineNodes = %d, want a strict subset of %d", st.ByzantineNodes, n)
	}
	if st.SpamFrames == 0 {
		t.Fatal("certain spam produced no frames")
	}
	totalNoise := 0
	for _, nd := range inner {
		totalNoise += nd.(*chattyNode).noise
	}
	if totalNoise == 0 {
		t.Fatal("no noise frame was ever delivered")
	}
	// Spam is injected at the engine level: the wrappers transmitted more
	// than the inner automata decided to.
	totalSent := 0
	for _, nd := range inner {
		totalSent += nd.(*chattyNode).sent
	}
	if eng.Stats().Transmissions <= int64(totalSent) {
		t.Fatalf("transmissions %d not above inner sends %d", eng.Stats().Transmissions, totalSent)
	}
}

// TestNewEngineRejectsMismatchedInjector: an injector built for another
// node count is refused when the engine is built, instead of panicking in
// the first slot.
func TestNewEngineRejectsMismatchedInjector(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 10, Y: 0}, {X: 15, Y: 0}}
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), pos)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(Plan{Seed: 1}, len(pos)-1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]sim.Node, len(pos))
	for i := range nodes {
		nodes[i] = &chattyNode{p: 0.5}
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 1, Faults: inj})
	if err == nil {
		eng.Step()
		t.Fatal("NewEngine accepted an injector over 3 nodes for a 4-node deployment")
	}
	if !strings.Contains(err.Error(), "fault hook over 3 nodes") {
		t.Errorf("error %q does not name the hook's node count", err)
	}
}

// TestByzantineMutateAndFromProtection: equivocation rewrites message
// contents but can never forge the link-layer sender, because the engine
// overwrites Frame.From after Tick.
func TestByzantineMutateAndFromProtection(t *testing.T) {
	const n, slots = 2, 40
	// Two nodes in range: node 0 Byzantine and always transmitting, node 1
	// listening and recording the observed From.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), pos)
	if err != nil {
		t.Fatal(err)
	}
	mutations := 0
	plan := Plan{Seed: 21, ByzantineFraction: 1, MutateRate: 1,
		Mutate: func(slot int64, node int, f *sim.Frame, src *rng.Source) {
			mutations++
			f.From = 999 // must be overwritten by the engine
			f.Msg.Origin = 999
		}}
	inj, err := NewInjector(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	sender := &chattyNode{p: 1}
	var froms []int
	var origins []int
	listener := &recordingNode{onRecv: func(f *sim.Frame) {
		froms = append(froms, f.From)
		origins = append(origins, f.Msg.Origin)
	}}
	nodes := inj.WrapNodes([]sim.Node{sender, listener})
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(slots, nil)
	if mutations == 0 || len(froms) == 0 {
		t.Fatalf("mutations=%d deliveries=%d", mutations, len(froms))
	}
	for i, from := range froms {
		if from != 0 {
			t.Fatalf("Byzantine node forged link-layer From=%d", from)
		}
		if origins[i] != 999 {
			t.Fatalf("equivocated Origin not delivered (got %d)", origins[i])
		}
	}
	if st := inj.Stats(); st.MutatedFrames != mutations {
		t.Fatalf("MutatedFrames = %d, want %d", st.MutatedFrames, mutations)
	}
}

// recordingNode never transmits and hands every delivery to a callback.
type recordingNode struct {
	onRecv func(f *sim.Frame)
}

func (r *recordingNode) Init(id int, src *rng.Source)    {}
func (r *recordingNode) Tick(s int64, f *sim.Frame) bool { return false }
func (r *recordingNode) Receive(s int64, f *sim.Frame)   { r.onRecv(f) }

// TestDropAndCorrupt: drop suppresses deliveries, corruption delivers a
// per-receiver mangled copy (id xored, payloads nil'd, kind preserved)
// without touching the sender's pooled frame.
func TestDropAndCorrupt(t *testing.T) {
	const slots = 400
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), pos)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Seed: 77, DropRate: 0.25, CorruptRate: 0.5}
	inj, err := NewInjector(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	sender := &chattyNode{p: 1}
	clean, corrupt := 0, 0
	listener := &recordingNode{onRecv: func(f *sim.Frame) {
		if f.Kind != testKind {
			t.Fatalf("corruption changed the frame kind to %v", f.Kind)
		}
		// Protocol ids stay below 2^33; the corrupt mask sets the top bit.
		if f.Msg.ID&(1<<63) != 0 {
			if f.Msg.Payload != nil || f.Payload != nil {
				t.Fatal("corruption left a payload attached")
			}
			corrupt++
		} else {
			clean++
		}
	}}
	eng, err := sim.NewEngine(ch, []sim.Node{sender, listener}, sim.Config{Seed: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(slots, nil)
	st := inj.Stats()
	if st.Dropped == 0 || st.Corrupted == 0 {
		t.Fatalf("drop/corrupt never fired: %+v", st)
	}
	if int64(st.Dropped) != int64(slots)-eng.Stats().Receptions {
		t.Fatalf("dropped %d but receptions %d/%d", st.Dropped, eng.Stats().Receptions, slots)
	}
	if corrupt != st.Corrupted || clean+corrupt != int(eng.Stats().Receptions) {
		t.Fatalf("observed %d corrupt + %d clean, stats %+v, receptions %d",
			corrupt, clean, st, eng.Stats().Receptions)
	}
}

// TestJamScrubsDecodes: a certain-jam plan on a two-node link injects no
// jammer (both nodes busy or only idle node is the receiver... the receiver
// itself may be co-opted) — use a 3-node line instead and check jam decodes
// never surface as protocol frames.
func TestJamScrubsDecodes(t *testing.T) {
	const slots = 300
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 10, Y: 0}}
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), pos)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Seed: 31, JamRate: 0.5, JamPower: 1}
	inj, err := NewInjector(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	sender := &chattyNode{p: 0.5}
	mid := &chattyNode{p: 0}
	far := &chattyNode{p: 0}
	eng, err := sim.NewEngine(ch, []sim.Node{sender, mid, far}, sim.Config{Seed: 3, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(slots, nil)
	st := inj.Stats()
	if st.JammedSlots == 0 || st.JamTransmissions == 0 {
		t.Fatalf("jamming never fired: %+v", st)
	}
	// Jammer transmissions are excluded from the engine's transmission count.
	if eng.Stats().Transmissions != int64(sender.sent) {
		t.Fatalf("transmissions %d != real sends %d (jammers must not count)",
			eng.Stats().Transmissions, sender.sent)
	}
}

// TestInjectorResetReplays: Engine.Reset rewinds the injector too, so a
// faulty execution replays bit-identically on a reused engine.
func TestInjectorResetReplays(t *testing.T) {
	const n, topoSeed, slots = 30, 13, 200
	plan := richPlan()
	freshNodes, freshEng, freshInj := scenario(t, n, topoSeed, plan, sim.Config{Seed: 9, Workers: 1}, nil)
	freshEng.Run(slots, nil)

	reNodes, reEng, reInj := scenario(t, n, topoSeed, plan, sim.Config{Seed: 1234, Workers: 1}, nil)
	reEng.Run(77, nil) // unrelated execution first
	replay := make([]sim.Node, n)
	inner := make([]sim.Node, n)
	for i := range replay {
		inner[i] = &chattyNode{p: 0.2}
	}
	copy(replay, reInj.WrapNodes(inner))
	_ = reNodes
	if err := reEng.Reset(replay, 9); err != nil {
		t.Fatal(err)
	}
	reEng.Run(slots, nil)
	if freshEng.Stats() != reEng.Stats() {
		t.Fatalf("stats diverged after Reset: %+v vs %+v", freshEng.Stats(), reEng.Stats())
	}
	a, b := snapshot(t, freshNodes), snapshot(t, inner)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d diverged after Reset: %+v vs %+v", i, a[i], b[i])
		}
	}
	if freshInj.Stats() != reInj.Stats() {
		t.Fatalf("fault stats diverged after Reset: %+v vs %+v", freshInj.Stats(), reInj.Stats())
	}
}

// TestPlanValidate covers the plan's error paths.
func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{CrashRate: -0.1},
		{CrashRate: 1.1},
		{JamRate: 2},
		{DropRate: -1},
		{ByzantineFraction: 3},
		{JamPower: -1},
		{CrashWindow: -5},
		{RecoverDelay: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad plan %d accepted", i)
		}
		if _, err := NewInjector(p, 4); err == nil {
			t.Fatalf("bad plan %d compiled", i)
		}
	}
	if _, err := NewInjector(Plan{}, 0); err == nil {
		t.Fatal("zero-node injector accepted")
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Fatalf("zero plan rejected: %v", err)
	}
}

// failInitNode records an Init failure and reports it via sim.NodeInitError.
type failInitNode struct{ err error }

func (f *failInitNode) Init(id int, src *rng.Source)     { f.err = errors.New("bad fault config") }
func (f *failInitNode) InitError() error                 { return f.err }
func (f *failInitNode) Tick(s int64, fr *sim.Frame) bool { return false }
func (f *failInitNode) Receive(s int64, fr *sim.Frame)   {}

// TestByzantineInitErrorPassthrough: wrapping a node whose Init fails must
// not swallow the failure — the wrapper forwards sim.NodeInitError, so
// sim.NewEngine still rejects the deployment.
func TestByzantineInitErrorPassthrough(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), pos)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(Plan{Seed: 1, ByzantineFraction: 1, SpamRate: 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	nodes := inj.WrapNodes([]sim.Node{&failInitNode{}, &chattyNode{p: 0.1}})
	if _, ok := nodes[0].(sim.NodeInitError); !ok {
		t.Fatal("Byzantine wrapper does not implement sim.NodeInitError")
	}
	if _, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 1, Faults: inj}); err == nil ||
		!strings.Contains(err.Error(), "bad fault config") {
		t.Fatalf("wrapper hid the inner init failure: %v", err)
	}
}
