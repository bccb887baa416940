// Package rng provides small, deterministic, splittable pseudo-random number
// sources used throughout the simulator.
//
// The simulator never uses the global math/rand state: every node automaton
// and every experiment receives its own Source derived from an explicit
// seed, which keeps simulations reproducible and allows tests to replay
// exact executions.
//
// The generator is a 64-bit SplitMix64/xorshift-star hybrid. It is not
// cryptographically secure; it only needs good statistical behaviour and
// cheap splitting.
package rng

import "math"

// Source is a deterministic pseudo-random number source. A Source is not
// safe for concurrent use; derive independent sources with Split for
// concurrent consumers.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	s := &Source{state: seed}
	// Warm up so that small seeds (0, 1, 2, ...) diverge quickly.
	s.Uint64()
	s.Uint64()
	return s
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	return splitmix64(&s.state)
}

// Split derives a new independent Source from s. The derived source's
// stream is a deterministic function of s's current state, and calling
// Split advances s, so successive Splits yield distinct sources.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xa02bdbf7bb3c0a7)
}

// SplitLabeled derives a new Source from s and a label. Unlike Split it
// does not advance s, so the derived source depends only on s's current
// state and the label. This is used to hand every node a stable per-node
// stream derived from a single experiment seed.
func (s *Source) SplitLabeled(label uint64) *Source {
	st := s.state ^ (label+1)*0x9e3779b97f4a7c15
	return New(splitmix64(&st))
}

// SplitLabels chains SplitLabeled over the given labels, deriving a Source
// that depends only on s's current state and the full label path. The
// experiment scheduler uses it to give every (experiment, point, trial) job
// an independent stream that is a pure function of its coordinates, never of
// execution order.
func (s *Source) SplitLabels(labels ...uint64) *Source {
	cur := s
	for _, l := range labels {
		cur = cur.SplitLabeled(l)
	}
	if cur == s {
		// Zero labels: return a copy so that drawing from the result never
		// advances s — the uniform contract of every split. The copy yields
		// s's future stream; callers that need an independent stream must
		// supply at least one label.
		return &Source{state: s.state}
	}
	return cur
}

// Label hashes an arbitrary string into a SplitLabeled label (FNV-1a
// finished with a splitmix64 avalanche, so short strings that share a
// prefix still land far apart). It lets named entities — experiment ids,
// protocol variants — anchor a labelled split without hand-picked constants.
func Label(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return splitmix64(&h)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits -> [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Rejection sampling to avoid modulo bias.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Int63n returns a uniformly distributed value in [0, n) as int64. It
// panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with non-positive n")
	}
	return int64(s.Intn(int(n)))
}

// Bernoulli returns true with probability p. Values of p <= 0 always return
// false and values >= 1 always return true.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1 using the Box-Muller transform.
func (s *Source) NormFloat64() float64 {
	// Avoid log(0).
	u1 := 1 - s.Float64()
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using swap, following the
// Fisher-Yates algorithm.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
