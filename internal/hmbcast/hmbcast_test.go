package hmbcast

import (
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(16, 0.1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Lambda: 0.5, EpsAck: 0.1},
		{Lambda: 16, EpsAck: 0},
		{Lambda: 16, EpsAck: 1},
		{Lambda: 16, EpsAck: 0.1, PMax: 0.9},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	cfg := DefaultConfig(10, 0.1)
	if got := cfg.ContentionBound(); got != 400 {
		t.Fatalf("ContentionBound = %v, want 400", got)
	}
	if cfg.StepLen() <= 0 || cfg.HaltBudget() <= 0 || cfg.FallbackThreshold() <= 0 {
		t.Fatal("derived quantities must be positive")
	}
	if cfg.MaxSlots() <= int64(cfg.StepLen()) {
		t.Fatal("MaxSlots suspiciously small")
	}
	// Tighter ε makes everything larger.
	tight := DefaultConfig(10, 0.001)
	if tight.HaltBudget() <= cfg.HaltBudget() || tight.StepLen() < cfg.StepLen() {
		t.Fatal("budgets not monotone in 1/ε")
	}
}

func TestAutomatonResolvesConfig(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(10, 0.1), DefaultConfig(1000, 0.001), {Lambda: 4, EpsAck: 0.2, StepFactor: 3, HaltFactor: 5, FallbackFactor: 0.5, PMax: 0.25}} {
		a, err := NewAutomaton(cfg, rng.New(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.nTilde != cfg.ContentionBound() || a.haltBudget != cfg.HaltBudget() || a.fallback != cfg.FallbackThreshold() || a.stepLen != cfg.StepLen() {
			t.Errorf("%+v: resolved Ñ %v, budget %v, fall-back %d, step %d; want %v, %v, %d, %d", cfg,
				a.nTilde, a.haltBudget, a.fallback, a.stepLen,
				cfg.ContentionBound(), cfg.HaltBudget(), cfg.FallbackThreshold(), cfg.StepLen())
		}
	}
}

func TestAutomatonConstructorErrors(t *testing.T) {
	if _, err := NewAutomaton(Config{Lambda: 0, EpsAck: 0.1}, rng.New(1), nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewAutomaton(DefaultConfig(8, 0.1), nil, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

// tick drives one automaton Tick with a throwaway pooled frame, returning
// whether the automaton transmitted.
func tick(a *Automaton) bool {
	var f sim.Frame
	return a.Tick(0, &f)
}

func TestAutomatonIdleUntilStart(t *testing.T) {
	aut, err := NewAutomaton(DefaultConfig(8, 0.1), rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if aut.Active() || aut.Done(0) {
		t.Fatal("fresh automaton active")
	}
	for i := 0; i < 100; i++ {
		if tick(aut) {
			t.Fatal("idle automaton transmitted")
		}
	}
}

func TestAutomatonHaltsWithinBudget(t *testing.T) {
	cfg := DefaultConfig(8, 0.1)
	aut, err := NewAutomaton(cfg, rng.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	aut.Start(0, core.Message{ID: 1, Origin: 0})
	if !aut.Active() {
		t.Fatal("automaton not active after Start")
	}
	transmitted := 0
	var slots int64
	for ; slots < cfg.MaxSlots() && !aut.Done(0); slots++ {
		if tick(aut) {
			transmitted++
		}
	}
	if !aut.Done(0) {
		t.Fatalf("automaton did not halt within MaxSlots = %d", cfg.MaxSlots())
	}
	if transmitted == 0 {
		t.Fatal("automaton halted without ever transmitting")
	}
	// Once done it stops transmitting.
	for i := 0; i < 50; i++ {
		if tick(aut) {
			t.Fatal("halted automaton transmitted")
		}
	}
}

func TestAutomatonProbabilityRampsUp(t *testing.T) {
	cfg := DefaultConfig(32, 0.1)
	aut, err := NewAutomaton(cfg, rng.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	aut.Start(0, core.Message{ID: 1, Origin: 0})
	p0 := aut.Probability()
	for i := 0; i < cfg.StepLen()*4; i++ {
		tick(aut)
	}
	if aut.Probability() <= p0 {
		t.Fatalf("probability did not ramp up: %v -> %v", p0, aut.Probability())
	}
	// The probability never exceeds PMax.
	for i := 0; i < cfg.StepLen()*40 && !aut.Done(0); i++ {
		tick(aut)
		if aut.Probability() > cfg.withDefaults().PMax+1e-12 {
			t.Fatalf("probability %v exceeded PMax", aut.Probability())
		}
	}
}

func TestAutomatonFallbackOnContention(t *testing.T) {
	cfg := DefaultConfig(8, 0.1)
	aut, err := NewAutomaton(cfg, rng.New(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	aut.Start(0, core.Message{ID: 1, Origin: 0})
	// Ramp the probability up first.
	for i := 0; i < cfg.StepLen()*12; i++ {
		tick(aut)
	}
	before := aut.Probability()
	// Simulate a busy channel: deliver more messages than the threshold.
	other := core.Message{ID: 99, Origin: 5}
	for i := 0; i <= cfg.FallbackThreshold(); i++ {
		aut.Receive(&sim.Frame{Kind: FrameKind, Msg: other})
	}
	if aut.Probability() >= before {
		t.Fatalf("fall-back did not reduce probability: %v -> %v", before, aut.Probability())
	}
}

func TestAutomatonIgnoresForeignFrames(t *testing.T) {
	calls := 0
	aut, err := NewAutomaton(DefaultConfig(8, 0.1), rng.New(5), func(core.Message) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	aut.Receive(nil)
	aut.Receive(&sim.Frame{Kind: sim.RegisterFrameKind("ap.data"), Msg: core.Message{ID: 1}})
	if calls != 0 {
		t.Fatalf("onData called %d times for non-data frames", calls)
	}
	aut.Receive(&sim.Frame{Kind: FrameKind, Msg: core.Message{ID: 1, Origin: 3}})
	if calls != 1 {
		t.Fatalf("onData calls = %d, want 1", calls)
	}
}

func TestAutomatonAbort(t *testing.T) {
	aut, err := NewAutomaton(DefaultConfig(8, 0.1), rng.New(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	aut.Start(0, core.Message{ID: 1, Origin: 0})
	aut.Abort()
	if aut.Active() || aut.Done(0) {
		t.Fatal("aborted automaton still active")
	}
	for i := 0; i < 100; i++ {
		if tick(aut) {
			t.Fatal("aborted automaton transmitted")
		}
	}
}
