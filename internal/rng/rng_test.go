package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs out of 100", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(-1) did not panic")
		}
	}()
	New(1).Int63n(-1)
}

func TestIntnUniformity(t *testing.T) {
	s := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(9)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(13)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, rate)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(21)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split sources produced %d identical outputs", same)
	}
}

func TestSplitLabeledStable(t *testing.T) {
	parent := New(33)
	a := parent.SplitLabeled(5)
	b := parent.SplitLabeled(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SplitLabeled with the same label produced different streams")
		}
	}
	c := parent.SplitLabeled(6)
	d := parent.SplitLabeled(7)
	if c.Uint64() == d.Uint64() {
		t.Fatal("SplitLabeled with different labels produced identical first values")
	}
}

func TestSplitLabelsPath(t *testing.T) {
	parent := New(33)
	a := parent.SplitLabels(1, 2, 3)
	b := parent.SplitLabels(1, 2, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SplitLabels with the same path produced different streams")
		}
	}
	// The path matters as a sequence, not as a set.
	c := parent.SplitLabels(1, 2, 3)
	d := parent.SplitLabels(3, 2, 1)
	if c.Uint64() == d.Uint64() {
		t.Fatal("SplitLabels ignored label order")
	}
	// Chaining must not advance the parent.
	before := parent.state
	parent.SplitLabels(9, 9)
	if parent.state != before {
		t.Fatal("SplitLabels advanced the parent source")
	}
	// Zero labels returns a copy: drawing from it must not advance the
	// parent.
	empty := parent.SplitLabels()
	if empty == parent {
		t.Fatal("SplitLabels with no labels aliased the receiver")
	}
	before = parent.state
	empty.Uint64()
	if parent.state != before {
		t.Fatal("drawing from an empty-path split advanced the parent")
	}
}

func TestLabelStableAndDistinct(t *testing.T) {
	if Label("E1-ack") != Label("E1-ack") {
		t.Fatal("Label is not deterministic")
	}
	names := []string{"", "E1-ack", "E2-proglb", "E3-approg", "E4-decay", "E5-smb", "E6-mmb", "E7-cons"}
	seen := make(map[uint64]string)
	for _, n := range names {
		l := Label(n)
		if prev, ok := seen[l]; ok {
			t.Fatalf("Label collision: %q and %q both hash to %d", prev, n, l)
		}
		seen[l] = n
	}
	// Labels must behave as SplitLabeled inputs: same label, same stream.
	parent := New(1)
	a := parent.SplitLabeled(Label("x"))
	b := parent.SplitLabeled(Label("x"))
	if a.Uint64() != b.Uint64() {
		t.Fatal("Label-derived splits diverged")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	for _, n := range []int{0, 1, 2, 5, 50} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	s := New(19)
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element multiset: sum %d != %d", got, sum)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(23)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

// Property: Intn output is always within range for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds yield identical float streams.
func TestQuickDeterministicFloats(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Float64() != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}
