package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

// The engine tests hand-build their epoch deltas; the full topology commit
// path is exercised by topology's and sinr's own tests, and here only the
// engine-side semantics matter.

// latticePositions lays n nodes on a spacing-2 line.
func latticePositions(n int) []geom.Point {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: 2 * float64(i), Y: 0}
	}
	return pos
}

// TestEngineApplyEpochErrors covers the apply's error paths on both
// evaluators: a nil delta, a delta of the wrong length, one with an
// out-of-range dirty id and ones that move a node to a non-finite or
// out-of-range position are rejected without a panic, the engine keeps
// running on its pre-epoch positions, and a later valid epoch still
// applies.
func TestEngineApplyEpochErrors(t *testing.T) {
	const n = 6
	pos := latticePositions(n)
	moved := func(p geom.Point) []geom.Point {
		cp := append([]geom.Point(nil), pos...)
		cp[0] = p
		return cp
	}
	bad := []struct {
		name  string
		delta *sinr.EpochDelta
		want  string
	}{
		{"nil", nil, "nil"},
		{"length", &sinr.EpochDelta{Dirty: []int{n}, Positions: latticePositions(n + 1)}, "positions"},
		{"dirty id", &sinr.EpochDelta{Dirty: []int{0, n}, Positions: moved(geom.Point{X: -50})}, "out of range"},
		{"NaN", &sinr.EpochDelta{Dirty: []int{0}, Positions: moved(geom.Point{X: math.NaN()})}, "finite"},
		{"+Inf", &sinr.EpochDelta{Dirty: []int{0}, Positions: moved(geom.Point{Y: math.Inf(1)})}, "finite"},
		{"1e300", &sinr.EpochDelta{Dirty: []int{0}, Positions: moved(geom.Point{X: 1e300})}, "finite"},
	}
	// The naive channel and the fast evaluator at its default and at one
	// shard.
	for ev, opts := range []*sinr.FastOptions{nil, {}, {Shards: 1}} {
		ch, err := sinr.NewChannel(sinr.DefaultParams(10), pos)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: 5, Workers: 2}
		if opts != nil {
			fast := sinr.NewFastChannel(ch, *opts)
			defer fast.Close()
			cfg.Evaluator = fast
		}
		eng, err := NewEngine(ch, randomNodes(n), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range bad {
			if err := eng.ApplyEpoch(tc.delta, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("evaluator %d %s: ApplyEpoch error = %v, want %q", ev, tc.name, err, tc.want)
			}
		}
		for i, p := range eng.Channel().Positions() {
			if p != pos[i] {
				t.Fatalf("evaluator %d: rejected delta moved node %d to %v", ev, i, p)
			}
		}
		eng.Run(5, nil)
		far := geom.Point{X: -50}
		if err := eng.ApplyEpoch(&sinr.EpochDelta{Dirty: []int{0}, Positions: moved(far)}, nil); err != nil {
			t.Fatalf("evaluator %d: apply after failed applies: %v", ev, err)
		}
		eng.Run(5, nil)
		if got := eng.Stats().Slots; got != 10 {
			t.Fatalf("evaluator %d: engine simulated %d slots, want 10", ev, got)
		}
		if got := eng.Channel().Positions()[0]; got != far {
			t.Fatalf("evaluator %d: node 0 at %v after the epoch, want %v", ev, got, far)
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
