package sinr_test

// The differential churn suite: randomized mobility epochs are committed
// through topology.Deployment's epoch API and applied to incrementally
// patched FastChannels, which must produce slot receptions bit-identical to
// (a) the naive reference over the updated channel and (b) a FastChannel
// rebuilt from scratch over the post-epoch positions — across the matrix
// regime and the cell lattice, the sparse/bounds/dense dispatch tiers,
// several worker counts, forks, and storm epochs that move half the nodes.
// This file lives in the external test package because it drives the real
// topology commit path (topology imports sinr).

import (
	"fmt"
	"math"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

// withWorkers sets f's worker count and returns f.
func withWorkers(f *sinr.FastChannel, workers int) *sinr.FastChannel {
	f.SetWorkers(workers)
	return f
}

// churnWorld is a lattice-backed dynamic deployment: nodes sit jittered on
// sites of a spacing-2 lattice, so every epoch trivially preserves the
// unit-distance invariant while still moving nodes across lattice cells.
type churnWorld struct {
	t      *testing.T
	src    *rng.Source
	d      *topology.Deployment
	sites  []geom.Point // lattice site centers
	siteOf []int        // node id -> site index
	vacant []int        // unoccupied site indices
}

const churnTestJitter = 0.4

func newChurnWorld(t *testing.T, src *rng.Source, rows, cols, n int, params sinr.Params) *churnWorld {
	w := &churnWorld{t: t, src: src}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			w.sites = append(w.sites, geom.Point{X: 2 * float64(c), Y: 2 * float64(r)})
		}
	}
	if n > len(w.sites) {
		t.Fatalf("churn world: %d nodes for %d sites", n, len(w.sites))
	}
	perm := src.Perm(len(w.sites))
	pos := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		w.siteOf = append(w.siteOf, perm[i])
		pos[i] = w.jitterAt(perm[i])
	}
	w.vacant = append(w.vacant, perm[n:]...)
	w.d = &topology.Deployment{Name: "churn-world", Positions: pos, Params: params}
	if err := w.d.Validate(false); err != nil {
		t.Fatalf("initial churn world invalid: %v", err)
	}
	return w
}

func (w *churnWorld) jitterAt(site int) geom.Point {
	angle := w.src.Float64() * 2 * math.Pi
	r := churnTestJitter * math.Sqrt(w.src.Float64())
	return geom.Point{X: w.sites[site].X + r*math.Cos(angle), Y: w.sites[site].Y + r*math.Sin(angle)}
}

// epoch queues and commits one random epoch of up to the given number of
// moves. Each mover either jitters around its own site or relocates to a
// vacant site, which usually crosses cells.
func (w *churnWorld) epoch(moves int) *sinr.EpochDelta {
	n := w.d.NumNodes()
	touched := make(map[int]bool)
	for c := 0; c < moves; c++ {
		id := w.src.Intn(n)
		if touched[id] {
			continue
		}
		touched[id] = true
		if len(w.vacant) > 0 && w.src.Bernoulli(0.5) {
			k := w.src.Intn(len(w.vacant))
			w.siteOf[id], w.vacant[k] = w.vacant[k], w.siteOf[id]
		}
		w.d.MoveNode(id, w.jitterAt(w.siteOf[id]))
	}
	delta, err := w.d.CommitEpoch()
	if err != nil {
		w.t.Fatalf("CommitEpoch: %v", err)
	}
	if err := delta.Validate(n); err != nil {
		w.t.Fatalf("committed delta: %v", err)
	}
	return delta
}

// churnVariants builds the fast-evaluator configurations the churn suite
// patches: the matrix regime and the cell lattice (pinned shard counts, the
// automatic count among them), each dispatch path pinned and the adaptive
// default, at one and several workers.
func churnVariants(ch *sinr.Channel) map[string]*sinr.FastChannel {
	return map[string]*sinr.FastChannel{
		"matrix/default":  withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{}), 2),
		"matrix/1w":       withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{}), 1),
		"matrix/sparse":   withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{SparseFactor: 1}), 2),
		"matrix/dense":    withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{SparseFactor: -1}), 2),
		"shard/s64":       withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{Shards: 64}), 4),
		"shard/s4":        withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{Shards: 4}), 2),
		"shard/s1/cert":   withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{Shards: 1, SparseFactor: -1, BoundsFactor: 1}), 2),
		"shard/s1/cert1w": withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{Shards: 1, SparseFactor: -1, BoundsFactor: 1}), 1),
		"shard/s2/cert":   withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{Shards: 2, SparseFactor: -1, BoundsFactor: 1}), 2),
		"shard/s4/dense":  withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: -1}), 1),
		"shard/s8/sparse": withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{Shards: 8, SparseFactor: 1}), 2),
	}
}

// churnTxSets draws the transmitter sets one post-epoch comparison round
// evaluates: a sparse set, a dense set and the all-transmit slot.
func churnTxSets(src *rng.Source, n int) [][]int {
	var sparse, dense []int
	for i := 0; i < n; i++ {
		if src.Bernoulli(0.08) {
			sparse = append(sparse, i)
		}
		if src.Bernoulli(0.45) {
			dense = append(dense, i)
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return [][]int{sparse, dense, all}
}

// assertChurnEquivalent compares every patched variant — and a from-scratch
// rebuild of the same configuration — against the naive reference.
func assertChurnEquivalent(t *testing.T, w *churnWorld, ch *sinr.Channel,
	variants map[string]*sinr.FastChannel, src *rng.Source, label string) {
	t.Helper()
	n := w.d.NumNodes()
	freshCh, err := sinr.NewChannel(w.d.Params, w.d.Positions)
	if err != nil {
		t.Fatalf("%s: fresh channel: %v", label, err)
	}
	rebuilt := churnVariants(freshCh)
	defer func() {
		for _, f := range rebuilt {
			f.Close()
		}
	}()
	for _, tx := range churnTxSets(src, n) {
		want := ch.SlotReceptions(tx)
		for name, fast := range variants {
			got := fast.SlotReceptions(tx)
			compareReceptions(t, fmt.Sprintf("%s patched %s", label, name), got, want, tx)
		}
		for name, fast := range rebuilt {
			got := fast.SlotReceptions(tx)
			compareReceptions(t, fmt.Sprintf("%s rebuilt %s", label, name), got, want, tx)
		}
	}
}

func compareReceptions(t *testing.T, label string, got, want []sinr.Reception, tx []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d receptions, want %d", label, len(got), len(want))
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("%s: node %d decoded sender %d, reference says %d (k=%d)",
				label, r, got[r].Sender, want[r].Sender, len(tx))
		}
	}
}

// TestChurnEpochEquivalence is the main differential churn test: randomized
// mobility epochs, applied incrementally, must leave every variant
// bit-identical to the naive reference and to a from-scratch rebuild.
func TestChurnEpochEquivalence(t *testing.T) {
	src := rng.New(0xc4421)
	w := newChurnWorld(t, src, 10, 10, 64, sinr.DefaultParams(9))
	ch, err := w.d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	variants := churnVariants(ch)
	defer func() {
		for _, f := range variants {
			f.Close()
		}
	}()
	// Epoch 0: no churn yet — establish the baseline and force every lazily
	// built index (the bounds cell index) into existence so the
	// later epochs exercise the patch paths rather than fresh builds.
	assertChurnEquivalent(t, w, ch, variants, src, "epoch 0")

	for e := 1; e <= 10; e++ {
		moves := 1 + src.Intn(6)
		if e%5 == 0 {
			// Churn storm: move half the deployment.
			moves = w.d.NumNodes() / 2
		}
		delta := w.epoch(moves)
		for name, fast := range variants {
			if err := fast.ApplyEpoch(delta); err != nil {
				t.Fatalf("epoch %d: ApplyEpoch on %s: %v", e, name, err)
			}
		}
		assertChurnEquivalent(t, w, ch, variants, src, fmt.Sprintf("epoch %d (dirty=%d)", e, len(delta.Dirty)))
	}
}

// TestChurnForkEquivalence checks that forks taken from a patched evaluator
// behave exactly like the evaluator itself, and that a pre-epoch fork that
// is handed every epoch stays equivalent too (the shared channel state is
// applied once per family, private state per member).
func TestChurnForkEquivalence(t *testing.T) {
	src := rng.New(0xf02c)
	w := newChurnWorld(t, src, 8, 8, 40, sinr.DefaultParams(8))
	ch, err := w.d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []sinr.FastOptions{
		{},
		{Shards: 64},
		{Shards: 1, SparseFactor: -1, BoundsFactor: 1},
	} {
		root := withWorkers(sinr.NewFastChannel(ch, opts), 2)
		early := root.Fork() // pre-epoch fork, patched alongside the root
		for _, tx := range churnTxSets(src, w.d.NumNodes()) {
			root.SlotReceptions(tx) // warm per-slot scratch pre-epoch
		}
		for e := 0; e < 4; e++ {
			delta := w.epoch(2 + src.Intn(3))
			if err := root.ApplyEpoch(delta); err != nil {
				t.Fatalf("root.ApplyEpoch: %v", err)
			}
			if err := early.ApplyEpoch(delta); err != nil {
				t.Fatalf("early.ApplyEpoch: %v", err)
			}
			late := root.Fork() // post-epoch fork
			for _, tx := range churnTxSets(src, w.d.NumNodes()) {
				want := ch.SlotReceptions(tx)
				compareReceptions(t, fmt.Sprintf("epoch %d root", e), root.SlotReceptions(tx), want, tx)
				compareReceptions(t, fmt.Sprintf("epoch %d early fork", e), early.SlotReceptions(tx), want, tx)
				compareReceptions(t, fmt.Sprintf("epoch %d late fork", e), late.SlotReceptions(tx), want, tx)
			}
			late.Close()
		}
		early.Close()
		root.Close()
		// Reset the shared channel for the next options set: the world
		// carries on churning, so rebuild a fresh channel snapshot.
		ch, err = w.d.Channel()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestChurnApplyAllocFree pins the benchmark acceptance property: on a
// steady-state mobility cycle the incremental apply path performs zero heap
// allocations, in the matrix regime and on the cell lattice, including the cell-index patch and the shard-partition append.
func TestChurnApplyAllocFree(t *testing.T) {
	for _, reg := range []struct {
		name string
		opts sinr.FastOptions
	}{
		{"matrix", sinr.FastOptions{SparseFactor: -1}},
		{"shard", sinr.FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: 1}},
		{"shard/s1", sinr.FastOptions{Shards: 1, SparseFactor: -1, BoundsFactor: 1}},
	} {
		t.Run(reg.name, func(t *testing.T) {
			const n, moved = 1000, 10
			ch, deltas, err := sinr.ChurnBenchWorkload(n, moved, 7)
			if err != nil {
				t.Fatal(err)
			}
			f := withWorkers(sinr.NewFastChannel(ch, reg.opts), 1)
			defer f.Close()
			if reg.opts.Shards > 0 && f.Shards() == 0 {
				t.Fatal("lattice configuration did not select the lattice")
			}
			// Warm every bucket/arena the cycle will touch.
			tx := make([]int, 0, n/2)
			for i := 0; i < n; i += 2 {
				tx = append(tx, i)
			}
			f.SlotReceptions(tx)
			for cycle := 0; cycle < 2; cycle++ {
				for _, d := range deltas {
					if err := f.ApplyEpoch(d); err != nil {
						t.Fatal(err)
					}
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(50, func() {
				if err := f.ApplyEpoch(deltas[i%2]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state ApplyEpoch allocates %.1f times per op, want 0", allocs)
			}
			// The patched evaluator still matches the naive reference.
			want := ch.SlotReceptions(tx)
			compareReceptions(t, reg.name+" post-cycle", f.SlotReceptions(tx), want, tx)
		})
	}
}

// TestChurnOutOfLatticeSharedInvalidation pins the fork-family
// invalidation of the lattice's cell index: when an epoch escapes the
// index's original lattice, whichever member applies it first drops and
// rebuilds the shared index, and every other member applying the same
// delta must follow — keeping a stale local index would evaluate later
// dense slots on a pre-epoch cell decomposition.
func TestChurnOutOfLatticeSharedInvalidation(t *testing.T) {
	var pos []geom.Point
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			pos = append(pos, geom.Point{X: 2 * float64(c), Y: 2 * float64(r)})
		}
	}
	n := len(pos)
	ch, err := sinr.NewChannel(sinr.DefaultParams(6), pos)
	if err != nil {
		t.Fatal(err)
	}
	root := withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{Shards: 1, SparseFactor: -1, BoundsFactor: 1}), 1)
	defer root.Close()
	fork := root.Fork()
	defer fork.Close()
	tx := make([]int, 0, n/2)
	for i := 0; i < n; i += 2 {
		tx = append(tx, i)
	}
	// Both members evaluate on the shared index pre-epoch.
	root.SlotReceptions(tx)
	fork.SlotReceptions(tx)
	// One node leaves the original lattice by many cells.
	moved := append([]geom.Point(nil), pos...)
	moved[0] = geom.Point{X: 120, Y: 120}
	delta := &sinr.EpochDelta{Dirty: []int{0}, Positions: moved}
	if err := root.ApplyEpoch(delta); err != nil {
		t.Fatal(err)
	}
	if err := fork.ApplyEpoch(delta); err != nil {
		t.Fatal(err)
	}
	want := ch.SlotReceptions(tx)
	compareReceptions(t, "root after lattice escape", root.SlotReceptions(tx), want, tx)
	compareReceptions(t, "fork after lattice escape", fork.SlotReceptions(tx), want, tx)
}

// TestChurnDeltaValidate covers EpochDelta's checks against the node count
// and the evaluators' rejection of a mismatched delta, which leaves them
// unchanged.
func TestChurnDeltaValidate(t *testing.T) {
	var nilDelta *sinr.EpochDelta
	if err := nilDelta.Validate(3); err == nil {
		t.Fatal("nil delta validated")
	}
	if err := (&sinr.EpochDelta{Positions: make([]geom.Point, 2)}).Validate(3); err == nil {
		t.Fatal("position/count mismatch validated")
	}
	for _, id := range []int{7, 3, -1} {
		if err := (&sinr.EpochDelta{Dirty: []int{id}, Positions: make([]geom.Point, 3)}).Validate(3); err == nil {
			t.Fatalf("out-of-range dirty id %d validated", id)
		}
	}
	if err := (&sinr.EpochDelta{Dirty: []int{0, 2}, Positions: make([]geom.Point, 3)}).Validate(3); err != nil {
		t.Fatalf("well-formed delta rejected: %v", err)
	}
	pos := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}}
	ch, err := sinr.NewChannel(sinr.DefaultParams(10), pos)
	if err != nil {
		t.Fatal(err)
	}
	f := sinr.NewFastChannel(ch)
	defer f.Close()
	far := make([]geom.Point, 5)
	for i := range far {
		far[i] = geom.Point{X: 100 * float64(i), Y: 0}
	}
	wrongN := &sinr.EpochDelta{Dirty: []int{0}, Positions: far}
	if err := f.ApplyEpoch(wrongN); err == nil {
		t.Fatal("ApplyEpoch accepted a delta for the wrong node count")
	}
	if err := ch.ApplyEpoch(wrongN); err == nil {
		t.Fatal("Channel.ApplyEpoch accepted a delta for the wrong node count")
	}
	badID := &sinr.EpochDelta{Dirty: []int{2}, Positions: far[:2]}
	if err := f.ApplyEpoch(badID); err == nil {
		t.Fatal("ApplyEpoch accepted an out-of-range dirty id")
	}
	for i, p := range ch.Positions() {
		if p != pos[i] {
			t.Fatalf("rejected delta moved node %d to %v", i, p)
		}
	}
	tx := []int{0}
	compareReceptions(t, "after rejected deltas", f.SlotReceptions(tx), ch.SlotReceptions(tx), tx)
}

// TestChurnCrossShardMigration drives epochs whose movers cross shard-stripe
// boundaries: lattice columns are mirrored from the far left of the
// deployment to the far right, so for any stripe count S ≥ 2 every mover
// changes shards (the stripe function is monotone in the cell column and the
// move crosses every stripe boundary). The patched sharded evaluators — and
// their pre-epoch forks, post-epoch forks and from-scratch rebuilds — must
// stay bit-identical to the naive reference, and the in-lattice patch must
// never demote the regime.
func TestChurnCrossShardMigration(t *testing.T) {
	const rows, cols = 6, 40
	var pos []geom.Point
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pos = append(pos, geom.Point{X: 2 * float64(c), Y: 2 * float64(r)})
		}
	}
	n := len(pos)
	// Range 6 ⇒ cell side ≈ 6: the 78-unit-wide lattice spans ~13 cell
	// columns, so even S = 8 gets non-degenerate stripes.
	ch, err := sinr.NewChannel(sinr.DefaultParams(6), pos)
	if err != nil {
		t.Fatal(err)
	}
	shardOpts := map[string]struct {
		opts    sinr.FastOptions
		workers int
	}{
		"s2/cert":     {sinr.FastOptions{Shards: 2, SparseFactor: -1, BoundsFactor: 1}, 2},
		"s4/adaptive": {sinr.FastOptions{Shards: 4}, 2},
		"s4/dense":    {sinr.FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: -1}, 2},
		"s8/cert/1w":  {sinr.FastOptions{Shards: 8, SparseFactor: -1, BoundsFactor: 1}, 1},
	}
	roots := make(map[string]*sinr.FastChannel, len(shardOpts))
	forks := make(map[string]*sinr.FastChannel, len(shardOpts))
	for name, opt := range shardOpts {
		root := withWorkers(sinr.NewFastChannel(ch, opt.opts), opt.workers)
		if root.Shards() == 0 {
			t.Fatalf("%s: construction did not select the lattice", name)
		}
		roots[name] = root
		forks[name] = root.Fork()
	}
	defer func() {
		for name := range roots {
			roots[name].Close()
			forks[name].Close()
		}
	}()
	src := rng.New(0x5a4d)
	cur := append([]geom.Point(nil), pos...)
	// Warm every evaluator pre-epoch so the epochs exercise the patch path.
	for _, tx := range churnTxSets(src, n) {
		for name := range roots {
			roots[name].SlotReceptions(tx)
			forks[name].SlotReceptions(tx)
		}
	}
	for e := 0; e < 5; e++ {
		// Mirror lattice column e across the deployment: X = 2e becomes
		// 77.4 - 2e, off the site grid so no two nodes coincide.
		next := append([]geom.Point(nil), cur...)
		dirty := make([]int, 0, rows)
		for r := 0; r < rows; r++ {
			id := r*cols + e
			dirty = append(dirty, id)
			next[id] = geom.Point{X: 2*float64(cols-1) - cur[id].X - 0.6, Y: cur[id].Y}
		}
		delta := &sinr.EpochDelta{Dirty: dirty, Positions: next}
		cur = next
		for name, root := range roots {
			if err := root.ApplyEpoch(delta); err != nil {
				t.Fatalf("epoch %d: ApplyEpoch on %s: %v", e, name, err)
			}
			if err := forks[name].ApplyEpoch(delta); err != nil {
				t.Fatalf("epoch %d: ApplyEpoch on %s fork: %v", e, name, err)
			}
			if root.Shards() == 0 {
				t.Fatalf("epoch %d: in-lattice migration demoted %s", e, name)
			}
		}
		late := roots["s4/adaptive"].Fork()
		rebuilt := withWorkers(sinr.NewFastChannel(ch, shardOpts["s4/adaptive"].opts), 2)
		for _, tx := range churnTxSets(src, n) {
			want := ch.SlotReceptions(tx)
			for name := range roots {
				label := fmt.Sprintf("epoch %d %s", e, name)
				compareReceptions(t, label+" patched", roots[name].SlotReceptions(tx), want, tx)
				compareReceptions(t, label+" early fork", forks[name].SlotReceptions(tx), want, tx)
			}
			compareReceptions(t, fmt.Sprintf("epoch %d late fork", e), late.SlotReceptions(tx), want, tx)
			compareReceptions(t, fmt.Sprintf("epoch %d rebuilt", e), rebuilt.SlotReceptions(tx), want, tx)
		}
		late.Close()
		rebuilt.Close()
	}
}

// TestChurnShardLatticeEscape covers the sharded regime's two outcomes for
// epochs that leave the cell index's original lattice. Either way the index
// is rebuilt eagerly inside ApplyEpoch (the regime has no per-pair state to
// fall back on, so it can never stay unresolved) and the whole fork family
// stays sharded. A moderate escape keeps the certified tier; an escape that
// stretches the deployment past the offset-table cap demotes the family to
// a lattice without tables, whose certificates decline. Either way the
// results must keep matching the naive reference.
func TestChurnShardLatticeEscape(t *testing.T) {
	build := func(t *testing.T) (*sinr.Channel, *sinr.FastChannel, *sinr.FastChannel, []int, []geom.Point) {
		var pos []geom.Point
		for r := 0; r < 5; r++ {
			for c := 0; c < 5; c++ {
				pos = append(pos, geom.Point{X: 2 * float64(c), Y: 2 * float64(r)})
			}
		}
		ch, err := sinr.NewChannel(sinr.DefaultParams(6), pos)
		if err != nil {
			t.Fatal(err)
		}
		root := withWorkers(sinr.NewFastChannel(ch, sinr.FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: 1}), 1)
		fork := root.Fork()
		tx := make([]int, 0, len(pos)/2)
		for i := 0; i < len(pos); i += 2 {
			tx = append(tx, i)
		}
		// Both members evaluate pre-epoch so the shared index is warm.
		root.SlotReceptions(tx)
		fork.SlotReceptions(tx)
		return ch, root, fork, tx, pos
	}
	apply := func(t *testing.T, ch *sinr.Channel, root, fork *sinr.FastChannel, tx []int, pos []geom.Point, to geom.Point, wantCertified bool) {
		t.Helper()
		moved := append([]geom.Point(nil), pos...)
		moved[0] = to
		delta := &sinr.EpochDelta{Dirty: []int{0}, Positions: moved}
		if err := root.ApplyEpoch(delta); err != nil {
			t.Fatalf("root.ApplyEpoch: %v", err)
		}
		if err := fork.ApplyEpoch(delta); err != nil {
			t.Fatalf("fork.ApplyEpoch: %v", err)
		}
		if root.Shards() != 4 || fork.Shards() != 4 {
			t.Fatalf("after escape to %v: root has %d shards, fork %d, want 4",
				to, root.Shards(), fork.Shards())
		}
		before := root.BoundsStats().Slots + fork.BoundsStats().Slots
		want := ch.SlotReceptions(tx)
		compareReceptions(t, "root after lattice escape", root.SlotReceptions(tx), want, tx)
		compareReceptions(t, "fork after lattice escape", fork.SlotReceptions(tx), want, tx)
		certified := root.BoundsStats().Slots+fork.BoundsStats().Slots-before == 2
		if certified != wantCertified {
			t.Fatalf("after escape to %v: certified pipeline engaged %v, want %v", to, certified, wantCertified)
		}
	}
	t.Run("rebuild", func(t *testing.T) {
		ch, root, fork, tx, pos := build(t)
		defer root.Close()
		defer fork.Close()
		// ~20 cells away: outside the original lattice, well inside the
		// offset-table cap, so the eager rebuild keeps the regime sharded.
		apply(t, ch, root, fork, tx, pos, geom.Point{X: 120, Y: 120}, true)
	})
	t.Run("demote", func(t *testing.T) {
		ch, root, fork, tx, pos := build(t)
		defer root.Close()
		defer fork.Close()
		// ~500k cells away: the offset tables would exceed boundsMaxOffsets,
		// so the whole family demotes to a lattice without tables.
		apply(t, ch, root, fork, tx, pos, geom.Point{X: 3e6, Y: 3e6}, false)
	})
}
