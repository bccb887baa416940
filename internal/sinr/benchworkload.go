package sinr

import (
	"math"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// BenchWorkload builds the canonical slot-path benchmark workload: n nodes
// drawn uniformly from a 4√n × 4√n square, so the density stays constant as
// n grows (the hardest regime for far-field culling — nearly every receiver
// has transmitters in range), with every tenth node transmitting. It is the
// workload of cmd/macbench's lattice case (naive vs fast at n = 4000),
// fixed so its measurements stay comparable over time.
func BenchWorkload(n int, seed uint64) (*Channel, []int, error) {
	src := rng.New(seed)
	side := 4 * math.Sqrt(float64(n))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		return nil, nil, err
	}
	var tx []int
	for i := 0; i < n; i += 10 {
		tx = append(tx, i)
	}
	return ch, tx, nil
}

// DenseBenchWorkload builds the dense-slot benchmark workload behind the
// bounds-vs-dense entries of BENCH_macbench.json: n nodes at BenchWorkload's
// canonical density (4√n × 4√n square) with k distinct transmitters drawn
// as the prefix of a seeded permutation — the regime a backoff protocol
// like decay spends its early phases in, where a large fraction of nodes
// transmits at once and the sender-centric sparse path cannot help. It is
// the fixed definition behind the bounds-vs-dense entries of
// BENCH_macbench.json, so those measurements stay comparable across PRs.
func DenseBenchWorkload(n, k int, seed uint64) (*Channel, []int, error) {
	src := rng.New(seed)
	side := 4 * math.Sqrt(float64(n))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		return nil, nil, err
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return ch, perm[:k], nil
}

// SparseBenchWorkload builds the sparse-slot benchmark workload: n nodes
// drawn uniformly from an 8√n × 8√n square (a quarter of BenchWorkload's
// density) with ⌈√n⌉ distinct random transmitters — the regime a backoff
// protocol like decay spends most of its slots in, where only a small
// fraction of receivers lies within culling range of any transmitter. It is
// the fixed definition behind the sparse-vs-dense entries of
// BENCH_macbench.json, so those measurements stay comparable across PRs.
func SparseBenchWorkload(n int, seed uint64) (*Channel, []int, error) {
	src := rng.New(seed)
	side := 8 * math.Sqrt(float64(n))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		return nil, nil, err
	}
	k := int(math.Ceil(math.Sqrt(float64(n))))
	seen := make(map[int]bool, k)
	tx := make([]int, 0, k)
	for len(tx) < k {
		id := src.Intn(n)
		if !seen[id] {
			seen[id] = true
			tx = append(tx, id)
		}
	}
	return ch, tx, nil
}
