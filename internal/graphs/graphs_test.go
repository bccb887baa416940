package graphs

import (
	"math"
	"testing"
	"testing/quick"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

// pathGraph returns the path 0-1-2-...-(n-1).
func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// randomGraph returns an Erdős–Rényi graph G(n, p).
func randomGraph(n int, p float64, src *rng.Source) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Bernoulli(p) {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self loop ignored
	g.AddEdge(1, 3)
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing or not symmetric")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self loop present")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("phantom edge (0,3)")
	}
	if got := g.Degree(1); got != 2 {
		t.Fatalf("Degree(1) = %d", got)
	}
	if got := g.MaxDegree(); got != 2 {
		t.Fatalf("MaxDegree = %d", got)
	}
	wantNbrs := []int{0, 3}
	got := g.Neighbors(1)
	if len(got) != 2 || got[0] != wantNbrs[0] || got[1] != wantNbrs[1] {
		t.Fatalf("Neighbors(1) = %v", got)
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	New(2).AddEdge(0, 2)
}

func TestNeighborsIsCopy(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	nbrs := g.Neighbors(0)
	nbrs[0] = 2
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("Neighbors exposed internal adjacency slice")
	}
}

func TestBFSAndDiameterPath(t *testing.T) {
	g := pathGraph(6)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Fatalf("BFS(0)[%d] = %d", i, d)
		}
	}
	if got := g.Diameter(); got != 5 {
		t.Fatalf("Diameter = %d", got)
	}
	if got := g.HopDist(1, 4); got != 3 {
		t.Fatalf("HopDist(1,4) = %d", got)
	}
	if got := g.Eccentricity(2); got != 3 {
		t.Fatalf("Eccentricity(2) = %d", got)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("unreachable nodes got distances %v", dist)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("Components = %v", comps)
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !New(0).IsConnected() {
		t.Fatal("empty graph not connected")
	}
	if !New(1).IsConnected() {
		t.Fatal("single node graph not connected")
	}
	if New(1).Diameter() != 0 {
		t.Fatal("single node diameter != 0")
	}
}

func TestNeighborhoodR(t *testing.T) {
	g := pathGraph(7)
	got := g.NeighborhoodR(3, 2)
	want := []int{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("NeighborhoodR = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NeighborhoodR = %v, want %v", got, want)
		}
	}
	setGot := g.NeighborhoodRSet([]int{0, 6}, 1)
	wantSet := []int{0, 1, 5, 6}
	if len(setGot) != len(wantSet) {
		t.Fatalf("NeighborhoodRSet = %v, want %v", setGot, wantSet)
	}
	for i := range wantSet {
		if setGot[i] != wantSet[i] {
			t.Fatalf("NeighborhoodRSet = %v, want %v", setGot, wantSet)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := pathGraph(5)
	sub, ids := g.InducedSubgraph([]int{0, 1, 3, 4, 4})
	if sub.NumNodes() != 4 {
		t.Fatalf("subgraph nodes = %d", sub.NumNodes())
	}
	if len(ids) != 4 || ids[0] != 0 || ids[3] != 4 {
		t.Fatalf("id map = %v", ids)
	}
	// Only 0-1 and 3-4 survive.
	if sub.NumEdges() != 2 {
		t.Fatalf("subgraph edges = %d", sub.NumEdges())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(2, 3) {
		t.Fatal("expected edges missing in induced subgraph")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := pathGraph(4)
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("Clone shares storage with original")
	}
	if c.NumEdges() != g.NumEdges()+1 {
		t.Fatal("Clone missing edges")
	}
}

func TestEdges(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 0)
	g.AddEdge(3, 1)
	g.AddEdge(0, 1)
	edges := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", edges, want)
		}
	}
}

func TestUnitDiskAndInduced(t *testing.T) {
	params := sinr.DefaultParams(10)
	pos := []geom.Point{{X: 0, Y: 0}, {X: 7.9, Y: 0}, {X: 9.5, Y: 0}, {X: 30, Y: 0}}
	weak := Weak(params, pos)
	strong := Strong(params, pos)
	approx := Approx(params, pos)

	// Weak graph (R=10): 0-8 and 8-9.5 edges, 0-9.5 edge (9.5<10), no 30.
	if !weak.HasEdge(0, 1) || !weak.HasEdge(1, 2) || !weak.HasEdge(0, 2) || weak.HasEdge(2, 3) {
		t.Fatalf("weak graph edges wrong: %v", weak.Edges())
	}
	// Strong graph (R_{1-ε}=9): 0-8, 8-9.5 (1.5), not 0-9.5.
	if !strong.HasEdge(0, 1) || !strong.HasEdge(1, 2) || strong.HasEdge(0, 2) {
		t.Fatalf("strong graph edges wrong: %v", strong.Edges())
	}
	// Approx graph (R_{1-2ε}=8): 0-8 included (<=), 8-9.5 included, not 0-9.5.
	if !approx.HasEdge(0, 1) || !approx.HasEdge(1, 2) || approx.HasEdge(0, 2) {
		t.Fatalf("approx graph edges wrong: %v", approx.Edges())
	}
	// Containment G_{1-2ε} ⊆ G_{1-ε} ⊆ G₁.
	for _, e := range approx.Edges() {
		if !strong.HasEdge(e[0], e[1]) {
			t.Fatalf("approx edge %v missing from strong graph", e)
		}
	}
	for _, e := range strong.Edges() {
		if !weak.HasEdge(e[0], e[1]) {
			t.Fatalf("strong edge %v missing from weak graph", e)
		}
	}
}

func TestEdgeLengthRatio(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 5, Y: 0}}
	g := New(3)
	if got := EdgeLengthRatio(g, pos); got != 1 {
		t.Fatalf("ratio of empty graph = %v", got)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if got := EdgeLengthRatio(g, pos); math.Abs(got-4) > 1e-12 {
		t.Fatalf("EdgeLengthRatio = %v, want 4", got)
	}
}

func TestIndependenceChecks(t *testing.T) {
	g := pathGraph(5)
	if !g.IsIndependent([]int{0, 2, 4}) {
		t.Fatal("alternating set not independent")
	}
	if g.IsIndependent([]int{0, 1}) {
		t.Fatal("adjacent pair reported independent")
	}
	all := []int{0, 1, 2, 3, 4}
	if !g.IsMaximalIndependent([]int{0, 2, 4}, all) {
		t.Fatal("maximal set not recognized")
	}
	if g.IsMaximalIndependent([]int{0, 4}, all) {
		t.Fatal("non-maximal set accepted (2 uncovered)")
	}
	if g.IsMaximalIndependent([]int{0, 1, 3}, all) {
		t.Fatal("dependent set accepted as maximal independent")
	}
}

func TestGreedyMIS(t *testing.T) {
	g := pathGraph(6)
	mis := g.GreedyMIS(nil)
	all := []int{0, 1, 2, 3, 4, 5}
	if !g.IsMaximalIndependent(mis, all) {
		t.Fatalf("GreedyMIS %v not a maximal independent set", mis)
	}
	// Restricted domain.
	dom := []int{1, 2, 3}
	mis = g.GreedyMIS(dom)
	if !g.IsMaximalIndependent(mis, dom) {
		t.Fatalf("restricted GreedyMIS %v not maximal over %v", mis, dom)
	}
}

func TestLabelMISUniqueLabels(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(30, 0.15, src)
		domain := make([]int, 30)
		labels := make(map[int]uint64, 30)
		for i := range domain {
			domain[i] = i
			labels[i] = uint64(i*7919 + 13) // unique
		}
		mis := g.LabelMIS(domain, labels)
		if !g.IsMaximalIndependent(mis, domain) {
			t.Fatalf("trial %d: LabelMIS %v not maximal independent", trial, mis)
		}
	}
}

func TestLabelMISDuplicateLabelsStillIndependent(t *testing.T) {
	src := rng.New(88)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(25, 0.2, src)
		domain := make([]int, 25)
		labels := make(map[int]uint64, 25)
		for i := range domain {
			domain[i] = i
			labels[i] = uint64(src.Intn(3)) // heavy duplication
		}
		mis := g.LabelMIS(domain, labels)
		if !g.IsIndependent(mis) {
			t.Fatalf("trial %d: LabelMIS with duplicate labels not independent: %v", trial, mis)
		}
		// With the id tie-break the result is in fact maximal as well.
		if !g.IsMaximalIndependent(mis, domain) {
			t.Fatalf("trial %d: LabelMIS with duplicate labels not maximal: %v", trial, mis)
		}
	}
}

func TestLabelMISSubdomain(t *testing.T) {
	g := pathGraph(8)
	domain := []int{2, 3, 4, 5}
	labels := map[int]uint64{2: 9, 3: 1, 4: 7, 5: 3}
	mis := g.LabelMIS(domain, labels)
	if !g.IsMaximalIndependent(mis, domain) {
		t.Fatalf("LabelMIS %v not maximal over %v", mis, domain)
	}
	for _, v := range mis {
		if v < 2 || v > 5 {
			t.Fatalf("LabelMIS returned node %d outside domain", v)
		}
	}
}

func TestGrowthBoundPath(t *testing.T) {
	g := pathGraph(20)
	// In a path the r-neighbourhood has 2r+1 nodes and an MIS of size r+1.
	for r := 0; r <= 3; r++ {
		if got := g.GrowthBound(r); got != r+1 {
			t.Fatalf("GrowthBound(%d) = %d, want %d", r, got, r+1)
		}
	}
}

func TestGrowthBoundUnitDiskPolynomial(t *testing.T) {
	// Unit-disk graphs are growth bounded: f(r) = O(r²). Check the estimate
	// does not explode faster than quadratically on a random deployment.
	src := rng.New(3)
	pos := make([]geom.Point, 200)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 30, Y: src.Float64() * 30}
	}
	g := UnitDisk(pos, 3)
	f2 := g.GrowthBound(2)
	f4 := g.GrowthBound(4)
	if f4 > 8*f2+8 {
		t.Fatalf("growth bound not polynomial-ish: f(2)=%d f(4)=%d", f2, f4)
	}
}

// Property: BFS distances obey the edge relaxation property |d(u)-d(v)| <= 1
// for every edge (u, v).
func TestQuickBFSEdgeConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(40)
		g := randomGraph(n, 0.1+src.Float64()*0.2, src)
		dist := g.BFS(0)
		for _, e := range g.Edges() {
			du, dv := dist[e[0]], dist[e[1]]
			if du < 0 != (dv < 0) {
				return false
			}
			if du >= 0 && dv >= 0 && abs(du-dv) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Diameter, whose searches share buffers, equals the largest
// finite distance of independent per-source BFS runs, on sparse graphs
// that are often disconnected.
func TestQuickDiameterMatchesBFS(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(40)
		g := randomGraph(n, src.Float64()*0.15, src)
		want := 0
		for u := 0; u < n; u++ {
			for _, d := range g.BFS(u) {
				want = max(want, d)
			}
		}
		return g.Diameter() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: GreedyMIS always yields a maximal independent set.
func TestQuickGreedyMISMaximal(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(40)
		g := randomGraph(n, src.Float64()*0.3, src)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return g.IsMaximalIndependent(g.GreedyMIS(nil), all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the SINR-induced graphs are nested: G_{1-2ε} ⊆ G_{1-ε} ⊆ G₁.
func TestQuickInducedGraphNesting(t *testing.T) {
	params := sinr.DefaultParams(10)
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(30)
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: src.Float64() * 50, Y: src.Float64() * 50}
		}
		weak, strong, approx := Weak(params, pos), Strong(params, pos), Approx(params, pos)
		for _, e := range approx.Edges() {
			if !strong.HasEdge(e[0], e[1]) {
				return false
			}
		}
		for _, e := range strong.Edges() {
			if !weak.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkDiameterRandom200(b *testing.B) {
	src := rng.New(10)
	g := randomGraph(200, 0.05, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Diameter()
	}
}

func BenchmarkGreedyMIS(b *testing.B) {
	src := rng.New(11)
	g := randomGraph(500, 0.02, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GreedyMIS(nil)
	}
}
