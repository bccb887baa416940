// Package graphs provides the graph machinery the paper layers on top of
// the SINR model: generic undirected graphs with hop distances, diameters
// and neighbourhoods (Section 4.1), SINR-induced connectivity graphs G_a
// (Section 4.3) and maximal-independent-set computations.
//
// A Graph is one sorted adjacency list per node and nothing else: there are
// no per-node hash sets, HasEdge is a binary search and Neighbors a copy.
// UnitDisk, which induces every SINR graph, buckets the points into a
// geom.Buckets grid with cells at least radius wide and tests only the
// pairs in nearby cells, so inducing a graph costs O(n + Σdeg) for a
// deployment of bounded density rather than n²/2 distance tests.
package graphs

import (
	"fmt"
	"math"
	"slices"

	"sinrmac/internal/geom"
	"sinrmac/internal/sinr"
)

// Graph is a simple undirected graph on nodes 0..n-1. Each node's
// adjacency list is kept sorted ascending, without duplicates or
// self-loops; every method relies on that invariant.
type Graph struct {
	n   int
	adj [][]int
}

// New returns an empty graph with n nodes and no edges. It panics if n is
// negative.
func New(n int) *Graph {
	if n < 0 {
		panic("graphs: negative node count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// AddEdge inserts the undirected edge (u, v), keeping both adjacency lists
// sorted. Self-loops and duplicate edges are ignored. It panics if either
// endpoint is out of range.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		return
	}
	i, found := slices.BinarySearch(g.adj[u], v)
	if found {
		return
	}
	g.adj[u] = slices.Insert(g.adj[u], i, v)
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[v] = slices.Insert(g.adj[v], j, u)
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graphs: node %d out of range [0, %d)", u, g.n))
	}
}

// HasEdge reports whether (u, v) is an edge, by binary search of u's
// adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, found := slices.BinarySearch(g.adj[u], v)
	return found
}

// Neighbors returns the neighbours of u in ascending order. The returned
// slice is a copy.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	return slices.Clone(g.adj[u])
}

// Degree returns the degree of u (excluding u itself, as in the paper's
// δ_G(v) definition).
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// MaxDegree returns Δ_G, the maximum degree over all nodes (0 for an empty
// graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// BFS returns the hop distance from src to every node; unreachable nodes
// get -1.
func (g *Graph) BFS(src int) []int {
	g.check(src)
	dist := make([]int, g.n)
	g.bfsInto(src, dist, nil)
	return dist
}

// bfsInto fills dist (of length n) with the hop distances from src, -1 for
// unreachable nodes, using queue's backing array as the FIFO. It returns
// the largest finite distance and the queue, grown if it had to be, so
// that repeated searches reuse both buffers.
func (g *Graph) bfsInto(src int, dist, queue []int) (int, []int) {
	ecc := 0
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				ecc = dist[v]
				queue = append(queue, v)
			}
		}
	}
	return ecc, queue
}

// HopDist returns the hop distance between u and v, or -1 if v is
// unreachable from u.
func (g *Graph) HopDist(u, v int) int {
	return g.BFS(u)[v]
}

// Eccentricity returns the largest finite hop distance from src to any
// reachable node.
func (g *Graph) Eccentricity(src int) int {
	g.check(src)
	ecc, _ := g.bfsInto(src, make([]int, g.n), nil)
	return ecc
}

// Diameter returns D_G, the maximum hop distance between any two nodes in
// the same connected component. For a graph with no edges it returns 0.
// The n searches share one distance buffer and one queue.
func (g *Graph) Diameter() int {
	dist := make([]int, g.n)
	var queue []int
	diam := 0
	for u := 0; u < g.n; u++ {
		var ecc int
		ecc, queue = g.bfsInto(u, dist, queue)
		diam = max(diam, ecc)
	}
	return diam
}

// IsConnected reports whether the graph is connected (the empty graph and
// single-node graph are considered connected).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u, a := range g.adj {
		c.adj[u] = slices.Clone(a)
	}
	return c
}

// Edges returns all edges (u < v) sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u, a := range g.adj {
		i, _ := slices.BinarySearch(a, u)
		for _, v := range a[i:] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// UnitDisk returns the graph connecting every pair of points at Euclidean
// distance at most radius (Dist(u, v) <= radius). The points go into a
// geom.Buckets grid with cells at least radius wide, and each node is
// tested only against the nodes of its AppendNear window, so the cost is
// O(n + Σdeg) for points of bounded density. Coordinates must be finite
// (UnitDisk panics otherwise); a negative or NaN radius yields no edges.
func UnitDisk(pos []geom.Point, radius float64) *Graph {
	n := len(pos)
	g := New(n)
	if n < 2 || !(radius >= 0) {
		return g
	}
	box := geom.BoundingBox(pos)
	for _, v := range [...]float64{box.Min.X, box.Min.Y, box.Max.X, box.Max.Y} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			panic("graphs: UnitDisk needs finite coordinates")
		}
	}
	// Each node is tested against the nodes before it, so every pair is
	// tested once: lower[lstart[u]:lstart[u+1]] are u's neighbours below
	// u. start[u+1] counts u's degree, then becomes the end of u's list.
	grid := geom.NewBuckets(box, radius, n)
	lower := make([]int32, 0, 2*n)
	lstart := make([]int, n+1)
	start := make([]int, n+1)
	var near []int32
	for u, p := range pos {
		near = grid.AppendNear(p, near[:0])
		for _, v := range near {
			if p.Dist(pos[v]) <= radius {
				lower = append(lower, v)
				start[v+1]++
			}
		}
		lstart[u+1] = len(lower)
		start[u+1] += lstart[u+1] - lstart[u]
		grid.Insert(u, p)
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	// One arena holds every list: u's lower neighbours, sorted, then its
	// upper neighbours, which arrive in ascending order. Each list is
	// capped at its length, so a later AddEdge reallocates instead of
	// writing into the next list.
	arena := make([]int, 2*len(lower))
	fill := slices.Clone(start[:n])
	for u := 0; u < n; u++ {
		low := lower[lstart[u]:lstart[u+1]]
		for _, v := range low {
			arena[fill[u]] = int(v)
			fill[u]++
		}
		slices.Sort(arena[start[u]:fill[u]])
		for _, v := range low {
			arena[fill[v]] = u
			fill[v]++
		}
	}
	for u := range g.adj {
		g.adj[u] = arena[start[u]:start[u+1]:start[u+1]]
	}
	return g
}

// Induced returns the SINR-induced graph G_a for the given deployment:
// nodes u, v are adjacent iff d(u, v) <= a·R where R is the transmission
// range implied by params (Section 4.3 of the paper).
func Induced(params sinr.Params, pos []geom.Point, a float64) *Graph {
	return UnitDisk(pos, params.RangeA(a))
}

// Strong returns G_{1-ε}, the reliable-communication graph.
func Strong(params sinr.Params, pos []geom.Point) *Graph {
	return Induced(params, pos, 1-params.Epsilon)
}

// Approx returns G_{1-2ε}, the graph in which approximate progress is
// measured.
func Approx(params sinr.Params, pos []geom.Point) *Graph {
	return Induced(params, pos, 1-2*params.Epsilon)
}

// Weak returns G₁, the weak-connectivity graph of all pairs within the full
// transmission range R.
func Weak(params sinr.Params, pos []geom.Point) *Graph {
	return Induced(params, pos, 1)
}

// IsIndependent reports whether no two nodes of s are adjacent in g.
func (g *Graph) IsIndependent(s []int) bool {
	inSet := g.members(s)
	for _, v := range s {
		for _, w := range g.adj[v] {
			if inSet[w] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependent reports whether s is a maximal independent set of
// the nodes in domain: s must be independent, every node of domain must be
// in s or adjacent to a member of s.
func (g *Graph) IsMaximalIndependent(s, domain []int) bool {
	if !g.IsIndependent(s) {
		return false
	}
	inSet := g.members(s)
	for _, v := range domain {
		if inSet[v] {
			continue
		}
		covered := false
		for _, w := range g.adj[v] {
			if inSet[w] {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// members returns the indicator vector of s over the nodes of g. It panics
// if a member is out of range.
func (g *Graph) members(s []int) []bool {
	in := make([]bool, g.n)
	for _, v := range s {
		g.check(v)
		in[v] = true
	}
	return in
}
