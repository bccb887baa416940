package topology

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"sinrmac/internal/geom"
	"sinrmac/internal/graphs"
	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

func TestUniformRandomBasics(t *testing.T) {
	params := sinr.DefaultParams(10)
	d, err := UniformRandom(100, 40, params, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 100 {
		t.Fatalf("NumNodes = %d", d.NumNodes())
	}
	if err := d.Validate(false); err != nil {
		t.Fatal(err)
	}
	if dmin := geom.MinPairwiseDist(d.Positions); dmin < 1 {
		t.Fatalf("min distance %v < 1", dmin)
	}
	box := geom.BoundingBox(d.Positions)
	if box.Min.X < 0 || box.Max.X > 40 || box.Min.Y < 0 || box.Max.Y > 40 {
		t.Fatalf("nodes escaped the square: %+v", box)
	}
}

func TestUniformRandomErrors(t *testing.T) {
	params := sinr.DefaultParams(10)
	if _, err := UniformRandom(0, 10, params, rng.New(1)); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := UniformRandom(1000, 3, params, rng.New(1)); err == nil {
		t.Fatal("impossible density accepted")
	}
	for _, side := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5} {
		if _, err := UniformRandom(10, side, params, rng.New(1)); err == nil {
			t.Fatalf("side %v accepted", side)
		}
	}
}

// TestPlacementPinned pins the rejection-sampled placements bit for bit: an
// FNV-1a hash over the Float64bits of every coordinate, at fixed seeds.
// Placement must draw the same random stream and accept the same
// candidates, or every deployment downstream changes.
func TestPlacementPinned(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Deployment, error)
		n     int
		want  uint64
	}{
		{"uniform", func() (*Deployment, error) {
			return UniformRandom(400, 40, sinr.DefaultParams(10), rng.New(3))
		}, 400, 0xb626e373ffd52a67},
		{"uniform-n4096", func() (*Deployment, error) {
			return UniformRandom(4096, 2.2*64*2, sinr.DefaultParams(12), rng.New(1))
		}, 4096, 0x295441cc79b82895},
		{"clusters", func() (*Deployment, error) {
			return Clusters(4, 128, sinr.DefaultParams(3*math.Sqrt(512)), rng.New(5))
		}, 512, 0x842df92b8b6c4c66},
		{"two-balls", func() (*Deployment, error) {
			return TwoBalls(32, sinr.DefaultParams(40), rng.New(11))
		}, 36, 0x55407282d0a704e3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, p := range d.Positions {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.X))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Y))
				h.Write(buf[:])
			}
			if d.NumNodes() != tc.n || h.Sum64() != tc.want {
				t.Fatalf("%d nodes, hash %#x; want %d nodes, hash %#x", d.NumNodes(), h.Sum64(), tc.n, tc.want)
			}
		})
	}
}

func TestUniformRandomDeterministic(t *testing.T) {
	params := sinr.DefaultParams(10)
	a, err := UniformRandom(50, 30, params, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := UniformRandom(50, 30, params, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("node %d differs between identical seeds", i)
		}
	}
}

func TestConnectedUniform(t *testing.T) {
	params := sinr.DefaultParams(12)
	d, err := ConnectedUniform(60, 30, params, rng.New(3), 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(true); err != nil {
		t.Fatal(err)
	}
}

func TestGridDeployment(t *testing.T) {
	params := sinr.DefaultParams(10)
	d, err := Grid(3, 4, 2, params)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 12 {
		t.Fatalf("NumNodes = %d", d.NumNodes())
	}
	if err := d.Validate(true); err != nil {
		t.Fatal(err)
	}
	if dmin := geom.MinPairwiseDist(d.Positions); math.Abs(dmin-2) > 1e-12 {
		t.Fatalf("grid min distance = %v", dmin)
	}
	if _, err := Grid(0, 3, 2, params); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := Grid(3, 3, 0.5, params); err == nil {
		t.Fatal("sub-unit spacing accepted")
	}
}

func TestLineDeployment(t *testing.T) {
	params := sinr.DefaultParams(10)
	d, err := Line(20, 4, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(true); err != nil {
		t.Fatal(err)
	}
	g := d.StrongGraph()
	// Strong range 9, spacing 4: each node connects to 2 positions either
	// side, so the diameter is ceil(19/2) = 10.
	if got := g.Diameter(); got != 10 {
		t.Fatalf("line diameter = %d, want 10", got)
	}
	if _, err := Line(0, 2, params); err == nil {
		t.Fatal("empty line accepted")
	}
	if _, err := Line(5, 0.2, params); err == nil {
		t.Fatal("sub-unit spacing accepted")
	}
}

func TestClustersDeployment(t *testing.T) {
	params := sinr.DefaultParams(30)
	d, err := Clusters(4, 20, params, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 80 {
		t.Fatalf("NumNodes = %d", d.NumNodes())
	}
	if err := d.Validate(true); err != nil {
		t.Fatal(err)
	}
	// Clusters should produce high degree relative to a same-size line.
	if deg := d.StrongGraph().MaxDegree(); deg < 19 {
		t.Fatalf("cluster max degree = %d, want >= 19 (cluster-mates adjacent)", deg)
	}
	if _, err := Clusters(0, 5, params, rng.New(1)); err == nil {
		t.Fatal("zero clusters accepted")
	}
	if _, err := Clusters(2, 10000, params, rng.New(1)); err == nil {
		t.Fatal("oversize cluster accepted")
	}
}

func TestParallelLinesConstruction(t *testing.T) {
	for _, delta := range []int{2, 4, 8, 16} {
		d, err := ParallelLines(delta, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumNodes() != 2*delta {
			t.Fatalf("delta=%d: NumNodes = %d", delta, d.NumNodes())
		}
		if err := d.Validate(true); err != nil {
			t.Fatalf("delta=%d: %v", delta, err)
		}
		g := d.StrongGraph()
		// Every node must have degree exactly delta (Theorem 6.1 setup):
		// delta-1 same-line neighbours plus exactly one cross-line link.
		for v := 0; v < d.NumNodes(); v++ {
			if got := g.Degree(v); got != delta {
				t.Fatalf("delta=%d: node %d degree %d, want %d", delta, v, got, delta)
			}
		}
		// v_i's only cross-line neighbour is u_i.
		senders := ParallelLinesSenders(delta)
		receivers := ParallelLinesReceivers(delta)
		for i, v := range senders {
			for j, u := range receivers {
				has := g.HasEdge(v, u)
				if (i == j) != has {
					t.Fatalf("delta=%d: edge(v%d,u%d) = %v", delta, i, j, has)
				}
			}
		}
	}
}

func TestParallelLinesErrors(t *testing.T) {
	if _, err := ParallelLines(0, 0.1); err == nil {
		t.Fatal("delta=0 accepted")
	}
	if _, err := ParallelLines(4, 0.7); err == nil {
		t.Fatal("epsilon=0.7 accepted")
	}
}

func TestParallelLinesCrossLinkWorksAlone(t *testing.T) {
	// A single cross-line transmission with no interference must decode:
	// the construction places the pair exactly at the strong radius, inside
	// the transmission range R.
	d, err := ParallelLines(5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	senders := ParallelLinesSenders(5)
	receivers := ParallelLinesReceivers(5)
	for i := range senders {
		if !ch.Decodes(receivers[i], senders[i], []int{senders[i]}) {
			t.Fatalf("lone cross-line transmission %d failed to decode", i)
		}
	}
}

func TestParallelLinesMutualExclusion(t *testing.T) {
	// When two cross-line pairs transmit concurrently, at least one of the
	// receptions fails (this is the contention at the heart of Theorem 6.1).
	d, err := ParallelLines(8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	senders := ParallelLinesSenders(8)
	receivers := ParallelLinesReceivers(8)
	tx := []int{senders[0], senders[4]}
	ok0 := ch.Decodes(receivers[0], senders[0], tx)
	ok4 := ch.Decodes(receivers[4], senders[4], tx)
	if ok0 && ok4 {
		t.Fatal("two concurrent cross-line transmissions both decoded; construction too weak")
	}
}

func TestTwoBallsConstruction(t *testing.T) {
	for _, delta := range []int{8, 32} {
		r := math.Max(20, 5*math.Sqrt(float64(delta)))
		params := sinr.DefaultParams(r)
		d, err := TwoBalls(delta, params, rng.New(11))
		if err != nil {
			t.Fatalf("delta=%d: %v", delta, err)
		}
		if d.NumNodes() < delta+2 {
			t.Fatalf("delta=%d: NumNodes = %d", delta, d.NumNodes())
		}
		if err := d.Validate(true); err != nil {
			t.Fatalf("delta=%d: %v", delta, err)
		}
		g := d.StrongGraph()
		// B1 and B2 must not be directly connected.
		for _, a := range []int{0, 1} { // B1
			for _, b := range TwoBallsB2(delta) {
				if g.HasEdge(a, b) {
					t.Fatalf("delta=%d: balls directly connected via (%d,%d)", delta, a, b)
				}
			}
		}
		// The two B1 nodes are mutual neighbours.
		if !g.HasEdge(0, 1) {
			t.Fatalf("delta=%d: B1 nodes not adjacent", delta)
		}
		// B2 is dense: every B2 node sees many other B2 nodes.
		for _, b := range TwoBallsB2(delta) {
			if g.Degree(b) < delta-1 {
				t.Fatalf("delta=%d: B2 node %d degree %d", delta, b, g.Degree(b))
			}
		}
	}
}

func TestTwoBallsErrors(t *testing.T) {
	params := sinr.DefaultParams(20)
	if _, err := TwoBalls(1, params, rng.New(1)); err == nil {
		t.Fatal("delta=1 accepted")
	}
	if _, err := TwoBalls(10000, params, rng.New(1)); err == nil {
		t.Fatal("oversized ball accepted")
	}
}

func TestValidateRejectsBadDeployments(t *testing.T) {
	params := sinr.DefaultParams(10)
	tooClose := &Deployment{
		Name:      "too-close",
		Positions: []geom.Point{{X: 0, Y: 0}, {X: 0.3, Y: 0}},
		Params:    params,
	}
	if err := tooClose.Validate(false); err == nil {
		t.Fatal("sub-unit spacing deployment validated")
	}
	empty := &Deployment{Name: "empty", Params: params}
	if err := empty.Validate(false); err == nil {
		t.Fatal("empty deployment validated")
	}
	disconnected := &Deployment{
		Name:      "disconnected",
		Positions: []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}},
		Params:    params,
	}
	if err := disconnected.Validate(true); err == nil {
		t.Fatal("disconnected deployment validated with requireConnected")
	}
	if err := disconnected.Validate(false); err != nil {
		t.Fatalf("disconnected deployment rejected without requireConnected: %v", err)
	}
	for _, bad := range []geom.Point{
		{X: math.NaN(), Y: 0},
		{X: 0, Y: math.NaN()},
		{X: math.Inf(1), Y: 0},
		{X: 0, Y: math.Inf(-1)},
		{X: 2 * sinr.MaxCoordinate, Y: 0},
		{X: 0, Y: -2 * sinr.MaxCoordinate},
	} {
		d := &Deployment{Name: "non-finite", Positions: []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 5}, bad}, Params: params}
		if err := d.Validate(false); err == nil || !strings.Contains(err.Error(), "node 2") {
			t.Fatalf("node at %v: Validate = %v, want an error naming node 2", bad, err)
		}
	}
}

func TestDeploymentDerivedQuantities(t *testing.T) {
	params := sinr.DefaultParams(10)
	d, err := Line(10, 2, params)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Lambda(); math.Abs(got-params.StrongRange()/2) > 1e-9 {
		t.Fatalf("Lambda = %v", got)
	}
	weak, strong, approx := graphs.Weak(d.Params, d.Positions), d.StrongGraph(), d.ApproxGraph()
	if weak.NumEdges() < strong.NumEdges() || strong.NumEdges() < approx.NumEdges() {
		t.Fatal("graph nesting violated")
	}
	if _, err := d.Channel(); err != nil {
		t.Fatal(err)
	}
}

// TestDeploymentCachesDerivedQuantities pins the sharing contract the
// parallel experiment scheduler relies on: StrongGraph and Lambda are
// induced once per deployment and returned from cache on every later call,
// including concurrent ones.
func TestDeploymentCachesDerivedQuantities(t *testing.T) {
	d, err := Line(12, 2, sinr.DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	graphs := make([]interface{}, 8)
	lambdas := make([]float64, 8)
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i] = d.StrongGraph()
			lambdas[i] = d.Lambda()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(graphs); i++ {
		if graphs[i] != graphs[0] {
			t.Fatal("StrongGraph returned different instances")
		}
		if lambdas[i] != lambdas[0] {
			t.Fatal("Lambda returned different values")
		}
	}
	if d.StrongGraph() != graphs[0] {
		t.Fatal("StrongGraph cache missed on a later call")
	}
}

// Property: uniform deployments always honour the unit minimum distance and
// stay inside their square, for arbitrary seeds.
func TestQuickUniformRandomInvariants(t *testing.T) {
	params := sinr.DefaultParams(10)
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 10 + src.Intn(60)
		side := 20 + src.Float64()*20
		d, err := UniformRandom(n, side, params, src)
		if err != nil {
			return true // density rejection is acceptable
		}
		if geom.MinPairwiseDist(d.Positions) < 1-1e-9 {
			return false
		}
		for _, p := range d.Positions {
			if p.X < 0 || p.X > side || p.Y < 0 || p.Y > side {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUniformRandom200(b *testing.B) {
	params := sinr.DefaultParams(10)
	for i := 0; i < b.N; i++ {
		if _, err := UniformRandom(200, 60, params, rng.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}
