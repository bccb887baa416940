package approgress

import (
	"slices"
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
	s := a.sch
	phase, phasePos := int(pos/s.phaseLen), pos%s.phaseLen
	id := first + int(pos%3)
	f := sim.Frame{}
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
		return
	}
	a.Receive(&f)
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
