package sim

import (
	"errors"
	"strings"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

// The engine tests hand-build their epoch deltas (batchChurnSchedule); the
// full topology commit path is exercised by topology's and sinr's own
// tests, and here only the engine-side semantics matter.

// latticePositions lays n nodes on a spacing-2 line.
func latticePositions(n int) []geom.Point {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: 2 * float64(i), Y: 0}
	}
	return pos
}

// churnEngine builds an engine of randomNodes over a fresh channel.
func churnEngine(t *testing.T, n int, seed uint64, fast bool) (*Engine, []Node) {
	t.Helper()
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), latticePositions(n))
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &randomNode{p: 0.2}
	}
	cfg := Config{Seed: seed, Workers: 2}
	if fast {
		cfg.Evaluator = sinr.NewFastChannel(ch, sinr.FastOptions{Workers: 2})
	}
	eng, err := NewEngine(ch, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, nodes
}

// TestEngineApplyEpochDifferential runs the same move schedule on a
// naive-evaluator engine and a fast-evaluator engine: the executions —
// per-slot receptions observed, aggregate stats — must be identical, and
// both must keep running correctly as nodes move. Every automaton keeps its
// id and its state across the epochs.
func TestEngineApplyEpochDifferential(t *testing.T) {
	const n, seed = 24, 11
	type run struct {
		eng   *Engine
		nodes []Node
		recs  [][]int
	}
	runs := make([]*run, 2)
	for i, fast := range []bool{false, true} {
		r := &run{}
		r.eng, r.nodes = churnEngine(t, n, seed, fast)
		r.eng.AddObserver(ObserverFunc(func(slot int64, tx []int, recs []sinr.Reception) {
			row := make([]int, len(recs))
			for j, rec := range recs {
				row[j] = rec.Sender
			}
			r.recs = append(r.recs, row)
		}))
		runs[i] = r
	}

	// One delta sequence drives both engines (deltas are reusable across
	// evaluator families).
	for _, r := range runs {
		r.eng.Run(30, nil)
		for _, delta := range batchChurnSchedule(n) {
			if err := r.eng.ApplyEpoch(delta, nil); err != nil {
				t.Fatal(err)
			}
			r.eng.Run(30, nil)
		}
		for i, node := range r.nodes {
			if r.eng.Node(i) != node || node.(*randomNode).id != i {
				t.Fatalf("node %d lost its automaton or id across the epochs", i)
			}
		}
	}
	a, b := runs[0], runs[1]
	if a.eng.Stats() != b.eng.Stats() {
		t.Fatalf("stats diverged: naive %+v, fast %+v", a.eng.Stats(), b.eng.Stats())
	}
	if len(a.recs) != len(b.recs) {
		t.Fatalf("slot counts diverged: %d vs %d", len(a.recs), len(b.recs))
	}
	for slot := range a.recs {
		if len(a.recs[slot]) != len(b.recs[slot]) {
			t.Fatalf("slot %d: reception widths diverged", slot)
		}
		for j := range a.recs[slot] {
			if a.recs[slot][j] != b.recs[slot][j] {
				t.Fatalf("slot %d node %d: naive decoded %d, fast %d",
					slot, j, a.recs[slot][j], b.recs[slot][j])
			}
		}
	}
}

// TestEngineApplyEpochErrors covers the apply's error paths on both
// evaluators: a delta of the wrong length and one with an out-of-range
// dirty id are rejected, the engine keeps running on its pre-epoch
// positions, and a later valid epoch still applies.
func TestEngineApplyEpochErrors(t *testing.T) {
	const n = 6
	for _, fast := range []bool{false, true} {
		eng, _ := churnEngine(t, n, 5, fast)
		pos := latticePositions(n)
		if err := eng.ApplyEpoch(&sinr.EpochDelta{Dirty: []int{n}, Positions: latticePositions(n + 1)}, nil); err == nil ||
			!strings.Contains(err.Error(), "positions") {
			t.Fatalf("fast=%v: wrong-length delta error = %v", fast, err)
		}
		far := append([]geom.Point(nil), pos...)
		far[0] = geom.Point{X: -50, Y: 0}
		if err := eng.ApplyEpoch(&sinr.EpochDelta{Dirty: []int{0, n}, Positions: far}, nil); err == nil ||
			!strings.Contains(err.Error(), "out of range") {
			t.Fatalf("fast=%v: out-of-range dirty id error = %v", fast, err)
		}
		if err := eng.ApplyEpoch(nil, nil); err == nil {
			t.Fatalf("fast=%v: nil delta accepted", fast)
		}
		for i, p := range eng.Channel().Positions() {
			if p != pos[i] {
				t.Fatalf("fast=%v: rejected delta moved node %d to %v", fast, i, p)
			}
		}
		eng.Run(5, nil)
		if err := eng.ApplyEpoch(&sinr.EpochDelta{Dirty: []int{0}, Positions: far}, nil); err != nil {
			t.Fatalf("fast=%v: apply after failed applies: %v", fast, err)
		}
		eng.Run(5, nil)
		if got := eng.Stats().Slots; got != 10 {
			t.Fatalf("fast=%v: engine simulated %d slots, want 10", fast, got)
		}
		if got := eng.Channel().Positions()[0]; got != far[0] {
			t.Fatalf("fast=%v: node 0 at %v after the epoch, want %v", fast, got, far[0])
		}
	}
}

// initFailNode fails its Init and reports it via NodeInitError.
type initFailNode struct{ err error }

func (f *initFailNode) Init(id int, src *rng.Source) { f.err = errors.New("bad config") }
func (f *initFailNode) InitError() error             { return f.err }
func (f *initFailNode) Tick(slot int64, fr *Frame) bool {
	return false
}
func (f *initFailNode) Receive(slot int64, fr *Frame) {}

// TestEngineSurfacesInitErrors checks that NewEngine and Reset return a
// node's recorded Init failure instead of letting protocols panic.
func TestEngineSurfacesInitErrors(t *testing.T) {
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), latticePositions(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(ch, []Node{&initFailNode{}, &randomNode{p: 0.1}}, Config{Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "bad config") {
		t.Fatalf("NewEngine error = %v, want wrapped init failure", err)
	}
	eng, err := NewEngine(ch, []Node{&randomNode{p: 0.1}, &randomNode{p: 0.1}}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset([]Node{&randomNode{p: 0.1}, &initFailNode{}}, 2); err == nil ||
		!strings.Contains(err.Error(), "bad config") {
		t.Fatalf("Reset error = %v, want wrapped init failure", err)
	}
}
