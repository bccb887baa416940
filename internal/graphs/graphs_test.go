package graphs

import (
	"fmt"
	"math"
	"slices"
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

// unitDiskReference is the all-pairs UnitDisk: n²/2 distance tests in
// index order. The cell-bucketed UnitDisk must return exactly its edges.
func unitDiskReference(pos []geom.Point, radius float64) *Graph {
	g := New(len(pos))
	for u := range pos {
		for v := u + 1; v < len(pos); v++ {
			if pos[u].Dist(pos[v]) <= radius {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestUnitDiskMatchesReference(t *testing.T) {
	src := rng.New(3)
	uniform := func(n int, lo, hi float64) []geom.Point {
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: lo + src.Float64()*(hi-lo), Y: lo + src.Float64()*(hi-lo)}
		}
		return pos
	}
	// multiples puts points on exact multiples of r and one ulp either side
	// of them, where floor(x/r) rounds at a cell edge.
	multiples := func(r float64, k int) []geom.Point {
		var pos []geom.Point
		for i := -k; i <= k; i++ {
			for j := -k; j <= k; j++ {
				x, y := float64(i)*r, float64(j)*r
				pos = append(pos, geom.Point{X: x, Y: y},
					geom.Point{X: math.Nextafter(x, math.Inf(1)), Y: y},
					geom.Point{X: x, Y: math.Nextafter(y, math.Inf(-1))})
			}
		}
		return pos
	}
	clusters := func(k, size int, spread float64) []geom.Point {
		var pos []geom.Point
		for c := 0; c < k; c++ {
			cx, cy := src.Float64()*60-30, src.Float64()*60-30
			for i := 0; i < size; i++ {
				pos = append(pos, geom.Point{X: cx + src.Float64()*spread, Y: cy + src.Float64()*spread})
			}
		}
		return pos
	}
	unitGrid := func(rows, cols int) []geom.Point {
		var pos []geom.Point
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				pos = append(pos, geom.Point{X: float64(i), Y: float64(j)})
			}
		}
		return pos
	}
	far := uniform(200, 0, 30)
	for i := range far {
		far[i].X += 1e12
		far[i].Y -= 1e12
	}
	cases := []struct {
		name   string
		pos    []geom.Point
		radius float64
	}{
		{"uniform", uniform(400, 0, 100), 10},
		{"uniform-dense", uniform(300, 0, 20), 7.3},
		{"uniform-huge-radius", uniform(50, 0, 10), 1e6},
		{"multiples-2.5", multiples(2.5, 4), 2.5},
		{"multiples-0.1", multiples(0.1, 4), 0.1},
		{"multiples-0.1-wider", multiples(0.1, 4), 0.2},
		{"multiples-3-diagonal", multiples(3, 3), 3 * math.Sqrt2},
		{"negative", uniform(300, -250, -150), 9},
		{"straddles-origin", uniform(300, -40, 40), 6},
		{"clusters", clusters(6, 40, 1.5), 3},
		{"coincident", clusters(3, 20, 0), 0},
		{"below-min-spacing", unitGrid(12, 12), 0.5},
		{"radius-zero", unitGrid(5, 5), 0},
		{"radius-at-spacing", unitGrid(12, 12), 1},
		{"far-from-origin", far, 4},
		{"far-radius-tiny", far, 1e-9},
		{"n0", nil, 5},
		{"n1", []geom.Point{{X: 1, Y: 1}}, 5},
		{"n2-edge", []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}, 5},
		{"n2-no-edge", []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}, math.Nextafter(5, 0)},
		{"n3-negative-radius", []geom.Point{{}, {X: 1}, {Y: 1}}, -1},
		{"n3-nan-radius", []geom.Point{{}, {X: 1}, {Y: 1}}, math.NaN()},
		{"n3-inf-radius", []geom.Point{{}, {X: 1e300}, {Y: -1e300}}, math.Inf(1)},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/n%d", tc.name, len(tc.pos)), func(t *testing.T) {
			got, want := UnitDisk(tc.pos, tc.radius), unitDiskReference(tc.pos, tc.radius)
			for u := range tc.pos {
				if !slices.Equal(got.adj[u], want.adj[u]) {
					t.Fatalf("node %d at %v: neighbours %v, want %v", u, tc.pos[u], got.adj[u], want.adj[u])
				}
			}
			if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
				t.Fatalf("%d nodes, %d edges; want %d, %d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
			}
		})
	}
}

func TestUnitDiskGraphStaysMutable(t *testing.T) {
	// UnitDisk's lists share one arena; AddEdge must not write into a
	// neighbour's list.
	pos := []geom.Point{{X: 0}, {X: 1}, {X: 2}, {X: 10}}
	g := UnitDisk(pos, 1)
	g.AddEdge(0, 3)
	g.AddEdge(1, 3)
	want := [][]int{{1, 3}, {0, 2, 3}, {1}, {0, 1}}
	for u, w := range want {
		if got := g.Neighbors(u); !slices.Equal(got, w) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, got, w)
		}
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
