package sinr

import (
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// withWorkers sets f's worker count and returns f.
func withWorkers(f *FastChannel, workers int) *FastChannel {
	f.SetWorkers(workers)
	return f
}

// withStripes re-partitions f's lattice, which its forks share, into
// stripeCount(bi, s) stripes, as the lattice would be striped with s in
// place of defaultShardCount; s ≤ 0 keeps the partition. An epoch that
// rebuilds the index restores the default, so callers re-stripe after
// every epoch. Tests vary the partition this way to hold the cross-shard
// certificate invariant (shard.go) at any stripe count.
func withStripes(f *FastChannel, s int) *FastChannel {
	if s > 0 {
		f.bidx.stripe(s)
	}
	return f
}

// stripeCount is the number of stripes stripe(s) gives bi: s clamped to
// the lattice's columns and occupied cells.
func stripeCount(bi *boundsIndex, s int) int {
	return min(s, bi.spanX+1, bi.cells.NumCells())
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
// call, slot evaluation performs no allocations, on every dispatch path and
// at one and several workers.
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
		name             string
		opt              FastOptions
		stripes, workers int
	}{
		{"shard/cert", FastOptions{SparseFactor: -1, BoundsFactor: 1}, 4, 1},
		{"shard/s1/cert", FastOptions{SparseFactor: -1, BoundsFactor: 1}, 1, 1},
		{"shard/dense", FastOptions{SparseFactor: -1, BoundsFactor: -1}, 4, 1},
		{"shard/sparse", FastOptions{SparseFactor: 1}, 4, 1},
		{"shard/sparse/4w", FastOptions{SparseFactor: 1}, 0, 4},
		{"shard/cert/4w", FastOptions{SparseFactor: -1, BoundsFactor: 1}, 8, 4},
	} {
		f := withStripes(withWorkers(NewFastChannel(ch, tc.opt), tc.workers), tc.stripes)
		f.SlotReceptions(tx) // warm the scratch rows and candidate buffers
		allocs := testing.AllocsPerRun(20, func() { f.SlotReceptions(tx) })
		if allocs != 0 {
			t.Errorf("%s path allocates %.1f objects per slot, want 0", tc.name, allocs)
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
