package sinr

import (
	"fmt"
	"math"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// withWorkers sets f's worker count and returns f.
func withWorkers(f *FastChannel, workers int) *FastChannel {
	f.SetWorkers(workers)
	return f
}

// fastVariants returns the fast-evaluator configurations the differential
// tests exercise: the matrix regime and the cell lattice (pinned shard
// counts, including the automatic defaultShardCount), each at one and
// several workers, with the sparse sender-centric crossover and the
// lattice's certified tier forced on, forced off and left at their
// defaults. The evaluators' worker pools are released when the test
// finishes.
func fastVariants(t testing.TB, ch *Channel) map[string]*FastChannel {
	variants := map[string]*FastChannel{
		"matrix/1w":        withWorkers(NewFastChannel(ch, FastOptions{}), 1),
		"matrix/4w":        withWorkers(NewFastChannel(ch, FastOptions{}), 4),
		"matrix/nosparse":  withWorkers(NewFastChannel(ch, FastOptions{SparseFactor: -1}), 2),
		"matrix/sparse":    withWorkers(NewFastChannel(ch, FastOptions{SparseFactor: 1}), 2),
		"shard/auto":       withWorkers(NewFastChannel(ch, FastOptions{Shards: defaultShardCount}), 4),
		"shard/s1":         withWorkers(NewFastChannel(ch, FastOptions{Shards: 1}), 2),
		"shard/s1/cert":    withWorkers(NewFastChannel(ch, FastOptions{Shards: 1, SparseFactor: -1, BoundsFactor: 1}), 2),
		"shard/s1/cert/1w": withWorkers(NewFastChannel(ch, FastOptions{Shards: 1, SparseFactor: -1, BoundsFactor: 1}), 1),
		"shard/s2/dense":   withWorkers(NewFastChannel(ch, FastOptions{Shards: 2, SparseFactor: -1, BoundsFactor: -1}), 2),
		"shard/s4/cert":    withWorkers(NewFastChannel(ch, FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: 1}), 2),
		"shard/s4/cert/1w": withWorkers(NewFastChannel(ch, FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: 1}), 1),
		"shard/s8/sparse":  withWorkers(NewFastChannel(ch, FastOptions{Shards: 8, SparseFactor: 1}), 4),
	}
	t.Cleanup(func() {
		for _, f := range variants {
			f.Close()
		}
	})
	return variants
}

// assertEquivalent checks every fast variant against the naive reference for
// one transmitter set. The fast result must be bit-identical (Reception is a
// sender index, so bit-identical means the same slice of ints). Passing the
// same variants map across calls exercises warm scratch arenas and power
// caches; passing nil builds fresh (cold) evaluators.
func assertEquivalent(t *testing.T, ch *Channel, variants map[string]*FastChannel, tx []int, label string) {
	t.Helper()
	if variants == nil {
		variants = fastVariants(t, ch)
	}
	want := ch.SlotReceptions(tx)
	for name, fast := range variants {
		got := fast.SlotReceptions(tx)
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d receptions, want %d", label, name, len(got), len(want))
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("%s %s: node %d decoded sender %d, naive reference says %d (tx=%v)",
					label, name, r, got[r].Sender, want[r].Sender, tx)
			}
		}
	}
}

// TestSlotReceptionsEquivalence is the differential property test of the
// fast evaluator: across three density regimes it draws random topologies
// and random transmitter sets and requires both regimes, at one and
// several workers, to reproduce the naive reference exactly. Half-duplex is
// exercised by every case in which a transmitter is also a potential
// receiver; the all-transmit case makes it total.
func TestSlotReceptionsEquivalence(t *testing.T) {
	regimes := []struct {
		name       string
		sideFactor float64 // deployment side = sideFactor * sqrt(n)
		txProb     float64
	}{
		{"sparse", 8, 0.05},
		{"medium", 4, 0.2},
		{"dense", 2, 0.5},
	}
	const casesPerRegime = 100
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			src := rng.New(0xd1ff + uint64(len(reg.name)))
			for c := 0; c < casesPerRegime; c++ {
				n := 20 + src.Intn(100)
				side := reg.sideFactor * math.Sqrt(float64(n))
				pos := make([]geom.Point, n)
				for i := range pos {
					pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
				}
				params := DefaultParams(5 + src.Float64()*20)
				ch, err := NewChannel(params, pos)
				if err != nil {
					t.Fatal(err)
				}
				variants := fastVariants(t, ch)
				label := fmt.Sprintf("case %d (n=%d)", c, n)
				// Several independent transmitter sets over the same
				// evaluators: the second and later slots run on warm
				// scratch arenas and power caches.
				for slot := 0; slot < 3; slot++ {
					var tx []int
					for i := 0; i < n; i++ {
						if src.Bernoulli(reg.txProb) {
							tx = append(tx, i)
						}
					}
					assertEquivalent(t, ch, variants, tx, fmt.Sprintf("%s slot %d (k=%d)", label, slot, len(tx)))
				}
				// The same deployment with everyone transmitting: pure
				// half-duplex, nothing may be decoded anywhere.
				all := make([]int, n)
				for i := range all {
					all[i] = i
				}
				assertEquivalent(t, ch, variants, all, label+" all-tx")
				// Release the case's pool goroutines eagerly rather than
				// letting hundreds of evaluators park helpers until the
				// subtest's deferred cleanup runs.
				for _, f := range variants {
					f.Close()
				}
			}
		})
	}
}

// TestSparseSenderCentricEquivalence is the dedicated differential test of
// the sparse sender-centric path: across transmitter densities k = 1, √n
// and n/4 and worker counts 1 and 4, the sparse path (forced on with
// SparseFactor 1) must reproduce the naive reference — and therefore the
// dense scan, which is held to the same reference elsewhere — bit for bit,
// in both the matrix regime and the cell lattice. Slots are evaluated repeatedly on
// the same evaluators so the second and later slots run on warm candidate
// buffers and visit stamps.
func TestSparseSenderCentricEquivalence(t *testing.T) {
	src := rng.New(0x5a135)
	const n = 360
	side := 5 * math.Sqrt(float64(n))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}
	ch, err := NewChannel(DefaultParams(14), pos)
	if err != nil {
		t.Fatal(err)
	}
	densities := []struct {
		name string
		k    int
	}{
		{"k=1", 1},
		{"k=sqrt(n)", int(math.Sqrt(n))},
		{"k=n/4", n / 4},
	}
	for _, regime := range []struct {
		name   string
		shards int
	}{
		{"matrix", 0},
		{"lattice", defaultShardCount},
	} {
		for _, workers := range []int{1, 4} {
			sparse := withWorkers(NewFastChannel(ch, FastOptions{Shards: regime.shards, SparseFactor: 1}), workers)
			dense := withWorkers(NewFastChannel(ch, FastOptions{Shards: regime.shards, SparseFactor: -1}), workers)
			for _, d := range densities {
				for slot := 0; slot < 4; slot++ {
					tx := make([]int, 0, d.k)
					for len(tx) < d.k {
						id := src.Intn(n)
						dup := false
						for _, s := range tx {
							if s == id {
								dup = true
								break
							}
						}
						if !dup {
							tx = append(tx, id)
						}
					}
					want := ch.SlotReceptions(tx)
					label := fmt.Sprintf("%s/%dw %s slot %d", regime.name, workers, d.name, slot)
					for name, fast := range map[string]*FastChannel{"sparse": sparse, "dense": dense} {
						got := fast.SlotReceptions(tx)
						for r := range want {
							if got[r] != want[r] {
								t.Fatalf("%s %s: node %d decoded %d, reference says %d (tx=%v)",
									label, name, r, got[r].Sender, want[r].Sender, tx)
							}
						}
					}
				}
			}
			sparse.Close()
			dense.Close()
		}
	}
}

// TestForkMatchesParent checks that a fork of a (warm) fast evaluator keeps
// producing receptions bit-identical to the naive reference in both the
// matrix regime and the cell lattice, and that the fork and its parent do not share
// mutable scratch: interleaved and concurrent evaluations of different
// transmitter sets stay independent.
func TestForkMatchesParent(t *testing.T) {
	src := rng.New(0xf0f0)
	n := 120
	side := 4 * math.Sqrt(float64(n))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts FastOptions
	}{
		{"matrix", FastOptions{}},
		{"lattice", FastOptions{Shards: defaultShardCount}},
		{"lattice/s1/bounds", FastOptions{Shards: 1, SparseFactor: -1, BoundsFactor: 1}},
		{"lattice/bounds", FastOptions{Shards: defaultShardCount, SparseFactor: -1, BoundsFactor: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent := withWorkers(NewFastChannel(ch, tc.opts), 2)
			// Warm the parent's scratch before forking.
			warm := []int{1, 3, 5, 7}
			parent.SlotReceptions(warm)
			fork := parent.Fork()
			if fork.NumNodes() != parent.NumNodes() || fork.Channel() != parent.Channel() {
				t.Fatal("fork does not share the parent's deployment")
			}

			// Interleaved slots: the fork's result must survive the parent
			// evaluating a different transmitter set (no shared out slice).
			txA := []int{0, 10, 20, 30, 40}
			txB := []int{2, 4, 6, 8}
			got := fork.SlotReceptions(txA)
			parent.SlotReceptions(txB)
			want := ch.SlotReceptions(txA)
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("fork diverged at node %d after parent ran: got %d want %d",
						r, got[r].Sender, want[r].Sender)
				}
			}

			// Concurrent forks over random transmitter sets: run under -race
			// this is the scheduler's sharing pattern (one fork per worker).
			const forks = 4
			done := make(chan error, forks)
			for w := 0; w < forks; w++ {
				f := parent.Fork()
				wsrc := rng.New(uint64(w) + 100)
				go func() {
					for slot := 0; slot < 25; slot++ {
						var tx []int
						for i := 0; i < n; i++ {
							if wsrc.Bernoulli(0.1) {
								tx = append(tx, i)
							}
						}
						got := f.SlotReceptions(tx)
						want := ch.SlotReceptions(tx)
						for r := range want {
							if got[r] != want[r] {
								done <- fmt.Errorf("concurrent fork diverged at node %d (slot %d)", r, slot)
								return
							}
						}
					}
					done <- nil
				}()
			}
			for w := 0; w < forks; w++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSlotReceptionsEquivalenceThreshold pins the β-threshold and near-field
// edge cases: receivers exactly at, just inside and just outside the
// transmission range R, coincident nodes inside the near-field clamp, and a
// symmetric-interference tie. These are the cases the far-field culling
// slack exists for.
func TestSlotReceptionsEquivalenceThreshold(t *testing.T) {
	p := DefaultParams(10)
	r := p.Range()
	cases := []struct {
		name string
		pos  []geom.Point
		tx   []int
	}{
		{"exactly-at-range", []geom.Point{{X: 0, Y: 0}, {X: r, Y: 0}}, []int{0}},
		{"just-inside", []geom.Point{{X: 0, Y: 0}, {X: r * 0.999999, Y: 0}}, []int{0}},
		{"just-outside", []geom.Point{{X: 0, Y: 0}, {X: r * 1.000001, Y: 0}}, []int{0}},
		{"range-ring", []geom.Point{
			{X: 0, Y: 0}, {X: r, Y: 0}, {X: -r, Y: 0}, {X: 0, Y: r}, {X: 0, Y: -r},
		}, []int{0}},
		{"near-field-clamp", []geom.Point{{X: 0, Y: 0}, {X: 0.25, Y: 0}, {X: 0.5, Y: 0}}, []int{0}},
		{"coincident-nodes", []geom.Point{{X: 3, Y: 3}, {X: 3, Y: 3}, {X: 5, Y: 3}}, []int{0}},
		{"symmetric-tie", []geom.Point{{X: -3, Y: 0}, {X: 3, Y: 0}, {X: 0, Y: 0}}, []int{0, 1}},
		{"half-duplex-pair", []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}}, []int{0, 1}},
		{"strong-range-line", []geom.Point{
			{X: 0, Y: 0}, {X: p.StrongRange(), Y: 0}, {X: 2 * p.StrongRange(), Y: 0},
		}, []int{0, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch, err := NewChannel(p, tc.pos)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, ch, nil, tc.tx, tc.name)
		})
	}
}

// TestFastChannelSubRangeDeployment covers the degenerate parameter corner
// where the transmission range is below the near-field clamp distance: the
// candidate radius must not collapse below 1.
func TestFastChannelSubRangeDeployment(t *testing.T) {
	p := DefaultParams(0.9)
	ch, err := NewChannel(p, []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 2, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, ch, nil, []int{0}, "sub-range")
	assertEquivalent(t, ch, nil, []int{0, 2}, "sub-range-two")
}

// TestFastChannelEmptyAndAccessors checks the trivial paths and the
// evaluator accessors.
func TestFastChannelEmptyAndAccessors(t *testing.T) {
	ch, err := NewChannel(DefaultParams(10), []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFastChannel(ch)
	if f.Params() != ch.Params() {
		t.Fatal("Params mismatch")
	}
	if f.NumNodes() != ch.NumNodes() {
		t.Fatal("NumNodes mismatch")
	}
	if f.Channel() != ch {
		t.Fatal("Channel accessor mismatch")
	}
	rec := f.SlotReceptions(nil)
	for i, r := range rec {
		if r.Sender != -1 {
			t.Fatalf("node %d decoded %d with no transmitters", i, r.Sender)
		}
	}
}

// TestFastChannelReusesOutput documents the arena contract: the slice
// returned by one call is overwritten by the next.
func TestFastChannelReusesOutput(t *testing.T) {
	ch, err := NewChannel(DefaultParams(10), []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFastChannel(ch)
	first := f.SlotReceptions([]int{0})
	if first[1].Sender != 0 {
		t.Fatalf("node 1 decoded %d, want 0", first[1].Sender)
	}
	second := f.SlotReceptions(nil)
	if &first[0] != &second[0] {
		t.Fatal("fast evaluator did not reuse its output arena")
	}
	if first[1].Sender != -1 {
		t.Fatal("previous result not overwritten by the arena")
	}
}

// TestFastChannelAllocFree verifies the arena property: after the first
// call, slot evaluation performs no allocations, in both regimes and at one
// and several workers.
func TestFastChannelAllocFree(t *testing.T) {
	src := rng.New(11)
	pos := make([]geom.Point, 300)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 80, Y: src.Float64() * 80}
	}
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		t.Fatal(err)
	}
	var tx []int
	for i := range pos {
		if i%7 == 0 {
			tx = append(tx, i)
		}
	}
	for _, tc := range []struct {
		name    string
		opt     FastOptions
		workers int
	}{
		{"matrix/dense", FastOptions{SparseFactor: -1}, 1},
		{"matrix/sparse", FastOptions{SparseFactor: 1}, 1},
		{"matrix/sparse/4w", FastOptions{SparseFactor: 1}, 4},
		{"shard/cert", FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: 1}, 1},
		{"shard/s1/cert", FastOptions{Shards: 1, SparseFactor: -1, BoundsFactor: 1}, 1},
		{"shard/dense", FastOptions{Shards: 4, SparseFactor: -1, BoundsFactor: -1}, 1},
		{"shard/sparse", FastOptions{Shards: 4, SparseFactor: 1}, 1},
		{"shard/cert/4w", FastOptions{Shards: 8, SparseFactor: -1, BoundsFactor: 1}, 4},
	} {
		f := withWorkers(NewFastChannel(ch, tc.opt), tc.workers)
		f.SlotReceptions(tx) // warm the scratch rows and candidate buffers
		allocs := testing.AllocsPerRun(20, func() { f.SlotReceptions(tx) })
		if allocs != 0 {
			t.Errorf("%s path allocates %.1f objects per slot, want 0", tc.name, allocs)
		}
		f.Close()
	}
}

// TestMatrixRegimeHasNoCertifiedTier pins that the matrix regime has no
// certified tier: neither a dense slot (all nodes but one transmitting, the
// densest slot that still has a listener) nor a churn epoch makes it build
// the lattice's offset tables or count a certified slot, even with the
// certified dispatch forced. Its cell index serves only the sparse path.
func TestMatrixRegimeHasNoCertifiedTier(t *testing.T) {
	const n = 300
	ch, deltas, err := ChurnBenchWorkload(n, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []FastOptions{{}, {SparseFactor: -1, BoundsFactor: 1}} {
		f := NewFastChannel(ch, opt)
		if f.mat == nil || f.Shards() != 0 {
			f.Close()
			t.Fatalf("%+v: n = %d did not select the matrix regime", opt, n)
		}
		tx := make([]int, 0, n-1)
		for i := 1; i < n; i++ {
			tx = append(tx, i)
		}
		only := map[string]*FastChannel{"matrix": f}
		assertEquivalent(t, ch, only, tx, fmt.Sprintf("%+v k=n-1", opt))
		if err := f.ApplyEpoch(deltas[0]); err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, ch, only, tx, fmt.Sprintf("%+v after epoch", opt))
		if bi := f.bidx; bi.pwUB != nil || bi.pwSuperUB != nil || bi.shardCells != nil {
			t.Errorf("%+v: matrix regime built the lattice's tables or partition", opt)
		}
		if st := f.BoundsStats(); st != (BoundsStats{}) {
			t.Errorf("%+v: matrix regime counted certified slots %+v", opt, st)
		}
		f.Close()
	}
}

func BenchmarkFastSlotReceptions200(b *testing.B) {
	p := testParams()
	src := rng.New(8)
	pos := make([]geom.Point, 200)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 60, Y: src.Float64() * 60}
	}
	ch, err := NewChannel(p, pos)
	if err != nil {
		b.Fatal(err)
	}
	var tx []int
	for i := range pos {
		if i%5 == 0 {
			tx = append(tx, i)
		}
	}
	f := NewFastChannel(ch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SlotReceptions(tx)
	}
}
