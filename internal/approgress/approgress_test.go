package approgress

import (
	"slices"
	"sort"
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/macnode"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(16, 0.1, 3).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Lambda: 0.5, EpsApprog: 0.1, Alpha: 3},
		{Lambda: 16, EpsApprog: 0, Alpha: 3},
		{Lambda: 16, EpsApprog: 1.2, Alpha: 3},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 2},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 3, P: 0.7},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
}

func TestConfigDerivedLengths(t *testing.T) {
	cfg := DefaultConfig(32, 0.1, 3)
	if cfg.T() <= 0 || cfg.Q() < 1 || cfg.DataSlots() <= 0 {
		t.Fatal("derived quantities must be positive")
	}
	if cfg.PhaseCount() < 2 {
		t.Fatalf("PhaseCount = %d", cfg.PhaseCount())
	}
	wantPhase := int64(2*cfg.T()) + int64(cfg.MISRoundCount()*cfg.T()) + int64(cfg.DataSlots())
	if got := cfg.PhaseLen(); got != wantPhase {
		t.Fatalf("PhaseLen = %d, want %d", got, wantPhase)
	}
	if got := cfg.EpochLen(); got != wantPhase*int64(cfg.PhaseCount()) {
		t.Fatalf("EpochLen = %d", got)
	}
	// Larger Λ gives more phases and a larger Q.
	big := DefaultConfig(1024, 0.1, 3)
	if big.PhaseCount() <= cfg.PhaseCount() || big.Q() <= cfg.Q() {
		t.Fatal("phase structure not monotone in Λ")
	}
	// The approximate-progress machinery does not depend on any degree
	// parameter: the epoch length is a function of Λ, ε and α only.
	if cfg.EpochLen() != DefaultConfig(32, 0.1, 3).EpochLen() {
		t.Fatal("epoch length not deterministic in its parameters")
	}
}

// TestAutomatonScheduleMatchesConfig checks that the schedule an automaton
// resolves at construction is the one its Config describes, including for
// non-default structural constants, and pins the default schedule's values.
func TestAutomatonScheduleMatchesConfig(t *testing.T) {
	def := DefaultConfig(32, 0.1, 3)
	tf, mis, data, phases, other := def, def, def, def, DefaultConfig(1000, 0.01, 4)
	tf.TFactor = 2.5
	mis.MISRounds = 9
	data.DataFactor = 3.5
	phases.Phases = 2
	other.P, other.QScale = 0.3, 0.5
	for i, cfg := range []Config{def, SimConfig(8, 0.1, 3), tf, mis, data, phases, other} {
		a, err := NewAutomaton(cfg, 0, rng.New(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		s, T := a.sch, int64(cfg.T())
		if s.t != T || s.discEnd != T || s.listEnd != 2*T || s.misEnd != int64(2+cfg.MISRoundCount())*T {
			t.Errorf("config %d: blocks end at %d/%d/%d with T = %d, want T = %d and MISRoundCount = %d",
				i, s.discEnd, s.listEnd, s.misEnd, s.t, T, cfg.MISRoundCount())
		}
		if s.phaseLen != cfg.PhaseLen() || s.phaseLen != s.misEnd+int64(cfg.DataSlots()) {
			t.Errorf("config %d: phase length %d, want %d", i, s.phaseLen, cfg.PhaseLen())
		}
		if s.epochLen != cfg.EpochLen() || s.epochLen != int64(cfg.PhaseCount())*s.phaseLen {
			t.Errorf("config %d: epoch length %d, want %d", i, s.epochLen, cfg.EpochLen())
		}
		if s.q != cfg.Q() || s.dataP != cfg.withDefaults().P/cfg.Q() {
			t.Errorf("config %d: data probability %v, want %v", i, s.dataP, cfg.withDefaults().P/cfg.Q())
		}
	}
	// The default schedule's values: every golden signature depends on them.
	s := def.schedule()
	if s.t != 50 || s.q != 125 || s.dataSlots != 416 || s.phaseLen != 816 || s.epochLen != 4896 {
		t.Errorf("default schedule %+v", s)
	}
	if mis.schedule().misEnd != 11*s.t || phases.EpochLen() != 2*s.phaseLen || tf.T() >= def.T() || data.DataSlots() <= def.DataSlots() {
		t.Error("a non-default structural constant was not honoured")
	}
}

func TestAutomatonConstructorErrors(t *testing.T) {
	if _, err := NewAutomaton(Config{Lambda: 0, EpsApprog: 0.1, Alpha: 3}, 0, rng.New(1), nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewAutomaton(DefaultConfig(8, 0.1, 3), 0, nil, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

// tick drives one automaton Tick with a throwaway pooled frame, returning
// the transmitted frame (nil when the automaton listened).
func tick(a *Automaton) *sim.Frame {
	var f sim.Frame
	if a.Tick(&f) {
		return &f
	}
	return nil
}

func TestAutomatonIdleWithoutBroadcast(t *testing.T) {
	aut, err := NewAutomaton(SimConfig(8, 0.1, 3), 0, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < aut.cfg.EpochLen()+10; i++ {
		if tick(aut) != nil {
			t.Fatal("idle automaton transmitted")
		}
	}
	if aut.Broadcasting() || aut.SenderActive() || aut.EpochSender() {
		t.Fatal("idle automaton claims to be active")
	}
}

func TestAutomatonJoinsAtEpochBoundary(t *testing.T) {
	cfg := SimConfig(8, 0.1, 3)
	aut, err := NewAutomaton(cfg, 0, rng.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Burn half an epoch, then start a broadcast: the node must not join
	// S₁ until the next epoch boundary.
	for i := int64(0); i < cfg.EpochLen()/2; i++ {
		tick(aut)
	}
	aut.Start(core.Message{ID: 1, Origin: 0})
	if !aut.Broadcasting() {
		t.Fatal("not broadcasting after Start")
	}
	for i := cfg.EpochLen() / 2; i < cfg.EpochLen(); i++ {
		tick(aut)
		if aut.EpochSender() {
			t.Fatal("node joined S₁ in the middle of an epoch")
		}
	}
	tick(aut) // first slot of the next epoch
	if !aut.EpochSender() || !aut.SenderActive() {
		t.Fatal("node did not join S₁ at the epoch boundary")
	}
}

func TestAutomatonTransmitsAllFrameKindsWhenAlone(t *testing.T) {
	cfg := SimConfig(8, 0.1, 3)
	aut, err := NewAutomaton(cfg, 3, rng.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	aut.Start(core.Message{ID: 9, Origin: 3})
	kinds := map[sim.FrameKind]int{}
	for i := int64(0); i < cfg.EpochLen(); i++ {
		if f := tick(aut); f != nil {
			kinds[f.Kind]++
		}
	}
	for _, k := range []sim.FrameKind{FrameID, FrameList, FrameMIS, FrameData} {
		if kinds[k] == 0 {
			t.Fatalf("automaton never transmitted %s frames; got %v", k, kinds)
		}
	}
	// A lone node must end every phase as a dominator (trivial local
	// minimum) and therefore stay in S_φ throughout.
	if !aut.SenderActive() {
		t.Fatal("lone broadcaster dropped out of the sender set")
	}
}

func TestAutomatonAbortStopsData(t *testing.T) {
	cfg := SimConfig(8, 0.1, 3)
	aut, err := NewAutomaton(cfg, 0, rng.New(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	aut.Start(core.Message{ID: 1, Origin: 0})
	aut.Abort()
	if aut.Broadcasting() {
		t.Fatal("still broadcasting after abort")
	}
	for i := int64(0); i < cfg.EpochLen(); i++ {
		if f := tick(aut); f != nil && f.Kind == FrameData {
			t.Fatal("aborted automaton transmitted data")
		}
	}
}

// feedScript delivers the control frames of three neighbours (first,
// first+1, first+2) that confirm id 0 as their neighbour, for the slot at
// epoch position pos. In the MIS block of phase lose they undercut every
// label and announce themselves dominators, so node 0 leaves the sender set
// at the next phase; in every other phase node 0 is the local minimum.
func feedScript(a *Automaton, pos int64, first, lose int) {
	if f := scriptedFrame(a.sch, pos, first, lose); f != nil {
		a.Receive(f)
	}
}

// scriptedFrame returns the frame feedScript delivers at epoch position pos
// of schedule s, or nil in the data block.
func scriptedFrame(s schedule, pos int64, first, lose int) *sim.Frame {
	phase, phasePos := int(pos/s.phaseLen), pos%s.phaseLen
	id := first + int(pos%3)
	f := &sim.Frame{}
	switch {
	case phasePos < s.discEnd:
		f.Kind, f.Payload = FrameID, &IDPayload{Phase: phase, ID: id}
	case phasePos < s.listEnd:
		f.Kind, f.Payload = FrameList, &ListPayload{Phase: phase, ID: id, Potentials: []int{0, id}}
	case phasePos < s.misEnd:
		p := &MISPayload{Phase: phase, ID: id, Label: ^uint64(0), State: StateUndecided}
		if phase == lose {
			p.Label, p.State = 0, StateDominator
		}
		f.Kind, f.Payload = FrameMIS, p
	default:
		return nil
	}
	return f
}

// TestPhaseResetForgetsHistory checks that the epoch and phase boundaries
// reset every piece of per-phase state: a broadcasting automaton that has
// already run an epoch under other receptions and another random stream
// traces the same S_φ membership, H̃̃-neighbour sets and transmissions over
// the next two epochs as a fresh automaton given the same stream and
// receptions.
func TestPhaseResetForgetsHistory(t *testing.T) {
	cfg := SimConfig(8, 0.1, 3)
	const lose = 2 // the traced epochs' losing phase; SimConfig(8, 0.1, 3) has four
	m := core.Message{ID: 1, Origin: 0}
	for _, seed := range []uint64{1, 2, 3} {
		fresh, err := NewAutomaton(cfg, 0, rng.New(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		used, err := NewAutomaton(cfg, 0, rng.New(seed+100), nil)
		if err != nil {
			t.Fatal(err)
		}
		epoch := fresh.sch.epochLen
		used.Start(m)
		for pos := int64(0); pos < epoch; pos++ {
			tick(used)
			feedScript(used, pos, 4, 0)
		}
		used.src = rng.New(seed)
		fresh.Start(m)
		active := 0
		for slot := int64(0); slot < 2*epoch; slot++ {
			ff, fu := tick(fresh), tick(used)
			if (ff == nil) != (fu == nil) || (ff != nil && ff.Kind != fu.Kind) {
				t.Fatalf("seed %d slot %d: fresh sent %v, used sent %v", seed, slot, ff, fu)
			}
			if fresh.SenderActive() != used.SenderActive() {
				t.Fatalf("seed %d slot %d: SenderActive %v fresh, %v used", seed, slot, fresh.SenderActive(), used.SenderActive())
			}
			if nf, nu := fresh.Neighbors(), used.Neighbors(); !slices.Equal(nf, nu) {
				t.Fatalf("seed %d slot %d: neighbours %v fresh, %v used", seed, slot, nf, nu)
			}
			if fresh.SenderActive() {
				active++
			}
			feedScript(fresh, slot%epoch, 1, lose)
			feedScript(used, slot%epoch, 1, lose)
		}
		// Node 0 is a sender up to phase lose of each epoch and drops out
		// after it, so the trace exercises both branches of the reset.
		if want := 2 * (lose + 1) * fresh.sch.phaseLen; int64(active) != want {
			t.Fatalf("seed %d: sender in %d slots, want %d", seed, active, want)
		}
	}
}

func TestAutomatonReceiveDataCallback(t *testing.T) {
	var got []core.Message
	aut, err := NewAutomaton(SimConfig(8, 0.1, 3), 1, rng.New(5), func(m core.Message) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	aut.Receive(nil)
	aut.Receive(&sim.Frame{Kind: sim.RegisterFrameKind("decay.data"), Msg: core.Message{ID: 3}})
	aut.Receive(&sim.Frame{Kind: FrameData, Msg: core.Message{ID: 4, Origin: 2}})
	if len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("onData saw %+v", got)
	}
}

// buildScenario builds a deployment, a recorder and one approgress Node per
// deployment node; broadcasters[i] == true makes node i broadcast message
// id 1000+i at slot 0.
func buildScenario(t *testing.T, d *topology.Deployment, cfg Config, broadcasters []bool, seed uint64) (*sim.Engine, []*macnode.Node, *core.Recorder) {
	t.Helper()
	rec := core.NewRecorder()
	nodes := make([]sim.Node, d.NumNodes())
	apNodes := make([]*macnode.Node, d.NumNodes())
	for i := range nodes {
		n := NewNode(cfg, 0, rec)
		apNodes[i] = n
		nodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range broadcasters {
		if b {
			apNodes[i].Bcast(0, core.Message{ID: core.MessageID(1000 + i), Origin: i})
		}
	}
	return eng, apNodes, rec
}

func TestSingleBroadcasterDeliversWithinEpochs(t *testing.T) {
	d, err := topology.Clusters(1, 8, sinr.DefaultParams(20), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig(d.Lambda(), 0.1, 3)
	broadcasters := make([]bool, d.NumNodes())
	broadcasters[0] = true
	eng, _, rec := buildScenario(t, d, cfg, broadcasters, 31)

	deadline := 3 * cfg.EpochLen()
	eng.Run(deadline, func() bool {
		return len(rec.EventsOfKind(core.EventRcv)) >= d.NumNodes()-1
	})
	rcvs := rec.EventsOfKind(core.EventRcv)
	received := map[int]bool{}
	for _, ev := range rcvs {
		if ev.Msg.ID == 1000 {
			received[ev.Node] = true
		}
	}
	if len(received) < d.NumNodes()-1 {
		t.Fatalf("only %d of %d neighbours received the broadcast within %d slots",
			len(received), d.NumNodes()-1, deadline)
	}
}

func TestApproxProgressInDenseCluster(t *testing.T) {
	// Every node in a dense cluster broadcasts; a designated listener node
	// must receive something within a small number of epochs even though
	// the contention equals the cluster size.
	d, err := topology.Clusters(1, 24, sinr.DefaultParams(30), rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig(d.Lambda(), 0.1, 3)
	broadcasters := make([]bool, d.NumNodes())
	for i := 1; i < d.NumNodes(); i++ {
		broadcasters[i] = true
	}
	eng, _, rec := buildScenario(t, d, cfg, broadcasters, 35)

	listenerGotIt := func() bool {
		for _, ev := range rec.EventsOfKind(core.EventRcv) {
			if ev.Node == 0 {
				return true
			}
		}
		return false
	}
	eng.Run(3*cfg.EpochLen(), listenerGotIt)
	if !listenerGotIt() {
		t.Fatalf("listener received nothing within 3 epochs (%d slots) despite %d broadcasting neighbours",
			3*cfg.EpochLen(), d.NumNodes()-1)
	}
	// The progress checker agrees that approximate progress was made for
	// the listener with respect to G_{1-2ε}.
	prog := core.MeasureProgress(rec.Events(), d.StrongGraph(), d.ApproxGraph(), eng.Slot())
	if prog.Satisfied == 0 {
		t.Fatal("no satisfied approximate-progress samples")
	}
}

func TestSparsificationReducesSenderSet(t *testing.T) {
	// Two dense clusters of broadcasters: by the last phase of an epoch the
	// surviving sender set S_Φ must be strictly smaller than S₁, because
	// the per-phase MIS removes dominated cluster-mates.
	d, err := topology.Clusters(2, 8, sinr.DefaultParams(20), rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig(d.Lambda(), 0.1, 3)
	cfg.TFactor = 10 // long discovery blocks so H̃̃ is reliably discovered
	broadcasters := make([]bool, d.NumNodes())
	for i := range broadcasters {
		broadcasters[i] = true
	}
	eng, apNodes, _ := buildScenario(t, d, cfg, broadcasters, 43)

	// Run until the start of the last phase's data block of the first
	// epoch, at which point S_Φ membership has been decided.
	lastPhaseStart := int64(cfg.PhaseCount()-1) * cfg.PhaseLen()
	_, misEnd := func() (int64, int64) {
		t := int64(cfg.T())
		return t, 2*t + int64(cfg.MISRoundCount())*t
	}()
	eng.Run(lastPhaseStart+misEnd+1, nil)

	active := 0
	for _, n := range apNodes {
		if n.Automaton().(*timed).SenderActive() {
			active++
		}
	}
	if active == 0 {
		t.Fatal("sender set collapsed to zero before the last phase")
	}
	if active >= d.NumNodes() {
		t.Fatalf("no sparsification: %d of %d nodes still in S_Φ", active, d.NumNodes())
	}
}

func TestNodeAckTimerAndAbort(t *testing.T) {
	rec := core.NewRecorder()
	n := NewNode(SimConfig(8, 0.1, 3), 50, rec)
	layer := &captureLayer{}
	n.SetLayer(layer)
	n.Init(2, rng.New(7))
	n.Bcast(0, core.Message{ID: 5, Origin: 2})
	if !n.Busy() {
		t.Fatal("node not busy after Bcast")
	}
	var fr sim.Frame
	for slot := int64(0); slot < 60; slot++ {
		n.Tick(slot, &fr)
	}
	if n.Busy() {
		t.Fatal("node still busy after the ack timer")
	}
	if len(layer.acks) != 1 || layer.acks[0].ID != 5 {
		t.Fatalf("acks = %+v", layer.acks)
	}
	if got := len(rec.EventsOfKind(core.EventAck)); got != 1 {
		t.Fatalf("ack events = %d", got)
	}

	// Abort before the timer suppresses the ack.
	n.Bcast(100, core.Message{ID: 6, Origin: 2})
	n.Abort(101, 6)
	for slot := int64(101); slot < 300; slot++ {
		n.Tick(slot, &fr)
	}
	if got := len(rec.EventsOfKind(core.EventAck)); got != 1 {
		t.Fatalf("ack fired for aborted message: %d acks", got)
	}
}

// captureLayer records layer callbacks.
type captureLayer struct {
	core.NopLayer
	rcvs []core.Message
	acks []core.Message
}

func (l *captureLayer) OnRcv(slot int64, m core.Message) { l.rcvs = append(l.rcvs, m) }
func (l *captureLayer) OnAck(slot int64, m core.Message) { l.acks = append(l.acks, m) }

// refAutomaton is the map-based Algorithm 9.1 automaton that Automaton
// replaced, kept verbatim as the reference the differential tests hold it
// to: every Tick divides a slot counter into the schedule, every phase
// start makes fresh maps for every node, and every MIS round start one more.
type refAutomaton struct {
	cfg    Config
	sch    schedule
	id     int
	src    *rng.Source
	onData func(core.Message)

	msg       *core.Message
	protoSlot int64

	// Per-epoch state.
	epochSender bool // member of S₁ this epoch

	// Per-phase state.
	phaseSender bool // member of S_φ for the current phase
	nextSender  bool // member of S_{φ+1} (decided during the MIS block)
	label       uint64
	idCounts    map[int]int
	potentials  []int
	confirmed   map[int][]int // sender id -> its potential list (from FrameList)
	neighbors   map[int]bool  // H̃̃ neighbours for the current phase
	misState    uint8
	heardRound  map[int]MISPayload // MIS messages heard in the current round
	curRound    int

	// Transmission scratch: the control payloads the automaton points
	// pooled frames at. Re-filled on every transmitting Tick, so a
	// receiver's view is stable for exactly one slot (the sim frame
	// lifecycle). listScratch additionally reuses its Potentials backing
	// array across slots.
	idScratch   IDPayload
	listScratch ListPayload
	misScratch  MISPayload
}

func newRefAutomaton(cfg Config, id int, src *rng.Source, onData func(core.Message)) *refAutomaton {
	return &refAutomaton{cfg: cfg.withDefaults(), sch: cfg.schedule(), id: id, src: src, onData: onData}
}

// Start sets m as the node's ongoing broadcast. The node joins S₁ at the
// start of the next epoch (the paper's nodes join at epoch boundaries).
func (a *refAutomaton) Start(m core.Message) {
	cp := m
	a.msg = &cp
}

// Abort clears the ongoing broadcast. The node keeps participating until
// the end of the current epoch, as in the paper's abort semantics, because
// epoch membership was fixed at the epoch boundary.
func (a *refAutomaton) Abort() {
	a.msg = nil
}

// SenderActive reports whether the node is a member of the current phase's
// sender set S_φ. It is exported for tests and instrumentation.
func (a *refAutomaton) SenderActive() bool { return a.phaseSender }

// EpochSender reports whether the node joined S₁ in the current epoch.
func (a *refAutomaton) EpochSender() bool { return a.epochSender }

// Neighbors returns the node's current H̃̃-neighbour set, sorted. It is
// exported for tests and instrumentation.
func (a *refAutomaton) Neighbors() []int {
	out := make([]int, 0, len(a.neighbors))
	for v := range a.neighbors {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Tick advances the automaton by one protocol slot; a transmission fills
// the pooled frame f and returns true.
func (a *refAutomaton) Tick(f *sim.Frame) bool {
	slot := a.protoSlot
	a.protoSlot++

	s := &a.sch
	epochPos := slot % s.epochLen
	phase := int(epochPos / s.phaseLen)
	phasePos := epochPos % s.phaseLen

	// Epoch boundary: recompute S₁ membership.
	if epochPos == 0 {
		a.epochSender = a.msg != nil
		a.phaseSender = a.epochSender
	}
	// Phase boundary: reset per-phase state.
	if phasePos == 0 {
		if phase > 0 {
			// S_{φ+1} membership was decided during the previous phase.
			a.phaseSender = a.phaseSender && a.nextSender
		}
		a.resetPhase()
	}

	switch {
	case phasePos < s.discEnd:
		return a.tickDiscovery(phase, f)
	case phasePos < s.listEnd:
		if phasePos == s.discEnd {
			a.finalizePotentials()
		}
		return a.tickList(phase, f)
	case phasePos < s.misEnd:
		round := int((phasePos - s.listEnd) / s.t)
		if (phasePos-s.listEnd)%s.t == 0 {
			if round == 0 {
				a.finalizeNeighbors()
			} else {
				a.processMISRound()
			}
			a.curRound = round
			a.heardRound = make(map[int]MISPayload)
		}
		return a.tickMIS(phase, round, f)
	default:
		if phasePos == s.misEnd {
			a.processMISRound()
			a.finalizeMIS()
		}
		return a.tickData(f)
	}
}

func (a *refAutomaton) resetPhase() {
	a.nextSender = false
	a.label = a.src.Uint64()%a.cfg.LabelRange + 1
	a.idCounts = make(map[int]int)
	a.potentials = nil
	a.confirmed = make(map[int][]int)
	a.neighbors = make(map[int]bool)
	a.misState = StateUndecided
	a.heardRound = make(map[int]MISPayload)
	a.curRound = 0
}

func (a *refAutomaton) tickDiscovery(phase int, f *sim.Frame) bool {
	if !a.phaseSender || !a.src.Bernoulli(a.cfg.P) {
		return false
	}
	a.idScratch = IDPayload{Phase: phase, ID: a.id}
	f.Kind = FrameID
	f.Payload = &a.idScratch
	return true
}

func (a *refAutomaton) finalizePotentials() {
	if !a.phaseSender {
		return
	}
	var pots []int
	for id, count := range a.idCounts {
		if count >= a.cfg.NeighborThreshold {
			pots = append(pots, id)
		}
	}
	sort.Ints(pots)
	a.potentials = pots
}

func (a *refAutomaton) tickList(phase int, f *sim.Frame) bool {
	if !a.phaseSender || !a.src.Bernoulli(a.cfg.P) {
		return false
	}
	a.listScratch.Phase = phase
	a.listScratch.ID = a.id
	a.listScratch.Potentials = append(a.listScratch.Potentials[:0], a.potentials...)
	f.Kind = FrameList
	f.Payload = &a.listScratch
	return true
}

// finalizeNeighbors computes the H̃̃ neighbour set: v is a neighbour of u if
// v is a potential neighbour of u and u appears in the potential list that
// u received from v (the mutual-confirmation rule of Section 9.3.1).
func (a *refAutomaton) finalizeNeighbors() {
	if !a.phaseSender {
		return
	}
	a.neighbors = make(map[int]bool)
	for _, v := range a.potentials {
		list, got := a.confirmed[v]
		if !got {
			continue
		}
		for _, w := range list {
			if w == a.id {
				a.neighbors[v] = true
				break
			}
		}
	}
}

func (a *refAutomaton) tickMIS(phase, round int, f *sim.Frame) bool {
	if !a.phaseSender || !a.src.Bernoulli(a.cfg.P) {
		return false
	}
	a.misScratch = MISPayload{
		Phase: phase, Round: round, ID: a.id, Label: a.label, State: a.misState,
	}
	f.Kind = FrameMIS
	f.Payload = &a.misScratch
	return true
}

// processMISRound applies the state transition at the end of an MIS round:
// a node dominated by an MIS neighbour becomes dominated; an undecided node
// whose label is a strict local minimum among the neighbours it heard (and
// which heard all of its neighbours) becomes a dominator. Neighbours that
// were not heard at all during the round are pruned (see the package
// comment for how this relates to the paper's drop-out rule).
func (a *refAutomaton) processMISRound() {
	if !a.phaseSender {
		return
	}
	// Prune neighbours that stayed silent for the whole round.
	heardAll := true
	for v := range a.neighbors {
		if _, ok := a.heardRound[v]; !ok {
			delete(a.neighbors, v)
			heardAll = false
		}
	}
	if a.misState != StateUndecided {
		return
	}
	isMin := true
	for v := range a.neighbors {
		msg := a.heardRound[v]
		if msg.State == StateDominator {
			a.misState = StateDominated
			return
		}
		if msg.State != StateUndecided {
			continue
		}
		if msg.Label < a.label || (msg.Label == a.label && v < a.id) {
			isMin = false
		}
	}
	if isMin && heardAll {
		a.misState = StateDominator
	}
}

// finalizeMIS decides S_{φ+1} membership: only dominators continue;
// undecided nodes are ignored, exactly as in the paper's modified MIS.
func (a *refAutomaton) finalizeMIS() {
	if !a.phaseSender {
		return
	}
	// A node with no surviving neighbours is trivially a local minimum.
	if a.misState == StateUndecided && len(a.neighbors) == 0 {
		a.misState = StateDominator
	}
	a.nextSender = a.misState == StateDominator
}

func (a *refAutomaton) tickData(f *sim.Frame) bool {
	if !a.phaseSender || a.msg == nil {
		return false
	}
	if !a.src.Bernoulli(a.sch.dataP) {
		return false
	}
	f.Kind = FrameData
	f.Msg = *a.msg
	return true
}

// Receive processes a frame decoded in one of this automaton's slots. The
// control payloads point into the sender's scratch and are only valid for
// this call, so anything retained (the confirmed potential lists, the
// heard-this-round MIS messages) is copied out here.
func (a *refAutomaton) Receive(f *sim.Frame) {
	if f == nil {
		return
	}
	switch f.Kind {
	case FrameID:
		if p, ok := f.Payload.(*IDPayload); ok && a.phaseSender {
			a.idCounts[p.ID]++
		}
	case FrameList:
		if p, ok := f.Payload.(*ListPayload); ok && a.phaseSender {
			a.confirmed[p.ID] = append([]int(nil), p.Potentials...)
		}
	case FrameMIS:
		if p, ok := f.Payload.(*MISPayload); ok && a.phaseSender {
			if a.neighbors[p.ID] {
				a.heardRound[p.ID] = *p
			}
		}
	case FrameData:
		if a.onData != nil {
			a.onData(f.Msg)
		}
	}
}

// diffConfig returns the configuration a differential run uses: the
// simulation preset at Λ = 8 with every control frame sent at P = 1/2,
// four labels (so labels tie often) and the given discovery threshold.
func diffConfig(threshold int) Config {
	cfg := SimConfig(8, 0.1, 3)
	cfg.P = 0.5
	cfg.LabelRange = 4
	cfg.NeighborThreshold = threshold
	return cfg
}

// scriptReader yields the bytes of a fuzzed script, then bytes from a
// random stream.
type scriptReader struct {
	data []byte
	src  *rng.Source
}

func (r *scriptReader) next() byte {
	if len(r.data) > 0 {
		b := r.data[0]
		r.data = r.data[1:]
		return b
	}
	return byte(r.src.Uint64())
}

// scriptFrame builds a frame from one of five senders around id (one of
// them far off, never a discovery-threshold regular), read from r. Most
// frames are of the kind the block at epoch position pos sends, as from a
// neighbour in step; the rest are of any kind, as from one out of step.
// Lists name id or not at random, and MIS labels come from 1..4 so that
// they tie with each other and with the receiver's.
func scriptFrame(r *scriptReader, s schedule, id int, pos int64) *sim.Frame {
	senders := [...]int{id - 2, id - 1, id + 1, id + 2, id + 7}
	from := senders[int(r.next())%len(senders)]
	phase, phasePos := int(pos/s.phaseLen), pos%s.phaseLen
	kind := r.next()
	if kind < 200 {
		switch {
		case phasePos < s.discEnd:
			kind = 0
		case phasePos < s.listEnd:
			kind = 1
		case phasePos < s.misEnd:
			kind = 2
		default:
			kind = 3
		}
	} else {
		kind %= 5
	}
	f := &sim.Frame{From: from}
	switch kind {
	case 0:
		f.Kind, f.Payload = FrameID, &IDPayload{Phase: phase, ID: from}
	case 1:
		pots := []int{from, id + 100}
		if b := r.next(); b%2 == 0 {
			pots[1] = id
		} else if b%5 == 0 {
			pots = nil
		}
		f.Kind, f.Payload = FrameList, &ListPayload{Phase: phase, ID: from, Potentials: pots}
	case 2:
		states := [...]uint8{StateUndecided, StateUndecided, StateUndecided, StateDominator, StateDominated}
		b := r.next()
		f.Kind, f.Payload = FrameMIS, &MISPayload{Phase: phase, ID: from, Label: 1 + uint64(b%4), State: states[int(b/4)%len(states)]}
	case 3:
		f.Kind, f.Msg = FrameData, core.Message{ID: core.MessageID(pos), Origin: from}
	default:
		f.Kind = otherKind
	}
	return f
}

// otherKind is a frame kind of another MAC, which the automaton ignores.
var otherKind = sim.RegisterFrameKind("decay.data")

// checkMatchesReference runs Automaton and refAutomaton side by side for
// the given number of slots on one random stream seed and one script: a
// Start or an Abort before any Tick, and zero to two frames after it.
// Each slot it compares what they transmit, their S₁ and S_φ membership,
// their H̃̃-neighbour sets and the data frames they pass on.
func checkMatchesReference(t *testing.T, cfg Config, seed uint64, script []byte, slots int64) {
	t.Helper()
	const id = 3
	var gotData, wantData []core.Message
	aut, err := NewAutomaton(cfg, id, rng.New(seed), func(m core.Message) { gotData = append(gotData, m) })
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefAutomaton(cfg, id, rng.New(seed), func(m core.Message) { wantData = append(wantData, m) })
	r := &scriptReader{data: script, src: rng.New(seed ^ 0x9e3779b97f4a7c15)}
	s := aut.sch
	for slot := int64(0); slot < slots; slot++ {
		pos := slot % s.epochLen
		switch op := r.next(); {
		case op < 4:
			m := core.Message{ID: core.MessageID(slot), Origin: id}
			aut.Start(m)
			ref.Start(m)
		case op < 8:
			aut.Abort()
			ref.Abort()
		}
		var got, want sim.Frame
		gotSent, wantSent := aut.Tick(&got), ref.Tick(&want)
		if gotSent != wantSent || (gotSent && !sameFrame(&got, &want)) {
			t.Fatalf("seed %d slot %d (epoch position %d): sent %v %+v, reference sent %v %+v",
				seed, slot, pos, gotSent, framePayload(&got), wantSent, framePayload(&want))
		}
		for k := [...]int{0, 0, 0, 0, 1, 1, 1, 2}[r.next()%8]; k > 0; k-- {
			f := scriptFrame(r, s, id, pos)
			aut.Receive(f)
			ref.Receive(f)
		}
		if aut.SenderActive() != ref.SenderActive() || aut.EpochSender() != ref.EpochSender() {
			t.Fatalf("seed %d slot %d (epoch position %d): SenderActive/EpochSender %v/%v, reference %v/%v",
				seed, slot, pos, aut.SenderActive(), aut.EpochSender(), ref.SenderActive(), ref.EpochSender())
		}
		if got, want := aut.Neighbors(), ref.Neighbors(); !slices.Equal(got, want) {
			t.Fatalf("seed %d slot %d (epoch position %d): neighbours %v, reference %v", seed, slot, pos, got, want)
		}
	}
	if !slices.Equal(gotData, wantData) {
		t.Fatalf("seed %d: data frames passed on %v, reference %v", seed, gotData, wantData)
	}
}

func sameFrame(got, want *sim.Frame) bool {
	if got.Kind != want.Kind || got.Msg != want.Msg {
		return false
	}
	switch g := got.Payload.(type) {
	case *IDPayload:
		w, ok := want.Payload.(*IDPayload)
		return ok && *g == *w
	case *ListPayload:
		w, ok := want.Payload.(*ListPayload)
		return ok && g.Phase == w.Phase && g.ID == w.ID && slices.Equal(g.Potentials, w.Potentials)
	case *MISPayload:
		w, ok := want.Payload.(*MISPayload)
		return ok && *g == *w
	}
	return got.Payload == nil && want.Payload == nil
}

// framePayload returns a frame's payload value for failure messages.
func framePayload(f *sim.Frame) any {
	switch p := f.Payload.(type) {
	case *IDPayload:
		return *p
	case *ListPayload:
		return *p
	case *MISPayload:
		return *p
	}
	return f.Msg
}

// TestAutomatonMatchesReference holds Automaton to the map-based reference
// slot for slot over three epochs of scripted bcasts, aborts and
// receptions, at discovery thresholds 1 to 3.
func TestAutomatonMatchesReference(t *testing.T) {
	for threshold := 1; threshold <= 3; threshold++ {
		cfg := diffConfig(threshold)
		for seed := uint64(1); seed <= 12; seed++ {
			checkMatchesReference(t, cfg, seed, nil, 3*cfg.EpochLen())
		}
	}
}

// FuzzAutomatonMatchesReference is TestAutomatonMatchesReference on fuzzed
// scripts: the script's bytes choose the bcasts, aborts and frames until
// they run out, the seed's stream after that.
func FuzzAutomatonMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(1), []byte{0, 4, 0, 0, 7, 1, 0})
	f.Add(uint64(2), uint8(2), []byte{2, 7, 3, 201, 1, 7, 4, 202, 0, 7, 2, 203, 9})
	f.Add(uint64(3), uint8(0), []byte{5, 200, 4, 255, 8, 6})
	f.Fuzz(func(t *testing.T, seed uint64, threshold uint8, script []byte) {
		cfg := diffConfig(1 + int(threshold)%3)
		checkMatchesReference(t, cfg, seed, script, 2*cfg.EpochLen())
	})
}

// TestAutomatonSteadyStateAllocFree checks that once its per-phase slices
// have grown, a broadcasting automaton runs a whole epoch of Ticks and
// scripted receptions, a bcast included, without allocating.
func TestAutomatonSteadyStateAllocFree(t *testing.T) {
	cfg := SimConfig(8, 0.1, 3)
	aut, err := NewAutomaton(cfg, 0, rng.New(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	epoch := aut.sch.epochLen
	// The receptions of each epoch position, built once: feedScript's
	// frames from nodes 1, 2 and 3, which make node 0 a dominator in every
	// phase but the third.
	frames := make([]*sim.Frame, epoch)
	for pos := range frames {
		frames[pos] = scriptedFrame(aut.sch, int64(pos), 1, 2)
	}
	m := core.Message{ID: 1, Origin: 0}
	var f sim.Frame
	withNeighbors := 0
	runEpoch := func() {
		aut.Start(m)
		for pos := int64(0); pos < epoch; pos++ {
			aut.Tick(&f)
			if fr := frames[pos]; fr != nil {
				aut.Receive(fr)
			}
			if len(aut.neighbors) > 0 {
				withNeighbors++
			}
		}
	}
	runEpoch()
	runEpoch()
	if allocs := testing.AllocsPerRun(1, runEpoch); allocs != 0 {
		t.Fatalf("one epoch allocates %v times", allocs)
	}
	if withNeighbors == 0 {
		t.Fatal("the scripted epochs never gave the automaton a neighbour")
	}
}
