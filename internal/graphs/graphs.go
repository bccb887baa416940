// Package graphs provides the graph machinery the paper layers on top of
// the SINR model: generic undirected graphs with hop distances, diameters
// and neighbourhoods (Section 4.1), SINR-induced strong-connectivity graphs
// G_a (Section 4.3), maximal-independent-set computations for
// growth-bounded graphs (used by Algorithm 9.1), and the Λ edge-length
// ratio.
package graphs

import (
	"fmt"
	"math"
	"sort"

	"sinrmac/internal/geom"
	"sinrmac/internal/sinr"
)

// Graph is a simple undirected graph on nodes 0..n-1.
type Graph struct {
	n   int
	adj [][]int
	set []map[int]bool
}

// New returns an empty graph with n nodes and no edges. It panics if n is
// negative.
func New(n int) *Graph {
	if n < 0 {
		panic("graphs: negative node count")
	}
	g := &Graph{
		n:   n,
		adj: make([][]int, n),
		set: make([]map[int]bool, n),
	}
	for i := range g.set {
		g.set[i] = make(map[int]bool)
	}
	return g
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

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicate
// edges are ignored. It panics if either endpoint is out of range.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v || g.set[u][v] {
		return
	}
	g.set[u][v] = true
	g.set[v][u] = true
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graphs: node %d out of range [0, %d)", u, g.n))
	}
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.set[u][v]
}

// Neighbors returns the neighbours of u in ascending order. The returned
// slice is a copy.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	out := make([]int, len(g.adj[u]))
	copy(out, g.adj[u])
	sort.Ints(out)
	return out
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

// Components returns the connected components as sorted node lists, ordered
// by their smallest node.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for u := 0; u < g.n; u++ {
		if seen[u] {
			continue
		}
		var comp []int
		queue := []int{u}
		seen[u] = true
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			comp = append(comp, x)
			for _, v := range g.adj[x] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// NeighborhoodR returns N_{G,r}(v): all nodes within hop distance r of v,
// including v itself, in ascending order.
func (g *Graph) NeighborhoodR(v, r int) []int {
	dist := g.BFS(v)
	var out []int
	for u, d := range dist {
		if d >= 0 && d <= r {
			out = append(out, u)
		}
	}
	return out
}

// NeighborhoodRSet returns N_{G,r}(W) for a set of nodes W: the union of
// the r-neighbourhoods of all nodes in W, in ascending order.
func (g *Graph) NeighborhoodRSet(w []int, r int) []int {
	seen := make(map[int]bool)
	for _, v := range w {
		for _, u := range g.NeighborhoodR(v, r) {
			seen[u] = true
		}
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// InducedSubgraph returns the subgraph G|S induced by the node set S,
// together with the mapping from new node index to original node id.
func (g *Graph) InducedSubgraph(s []int) (*Graph, []int) {
	nodes := append([]int(nil), s...)
	sort.Ints(nodes)
	// Deduplicate.
	nodes = dedupSorted(nodes)
	index := make(map[int]int, len(nodes))
	for i, v := range nodes {
		index[v] = i
	}
	sub := New(len(nodes))
	for i, v := range nodes {
		for _, w := range g.adj[v] {
			if j, ok := index[w]; ok && j > i {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub, nodes
}

func dedupSorted(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if v > u {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

// Edges returns all edges (u < v) sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if v > u {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// UnitDisk returns the graph connecting every pair of points at Euclidean
// distance at most radius.
func UnitDisk(pos []geom.Point, radius float64) *Graph {
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

// EdgeLengthRatio returns Λ_G: the ratio between the longest and the
// shortest Euclidean edge length of g under the given positions. It returns
// 1 for graphs with no edges.
func EdgeLengthRatio(g *Graph, pos []geom.Point) float64 {
	minLen, maxLen := math.Inf(1), 0.0
	for _, e := range g.Edges() {
		d := pos[e[0]].Dist(pos[e[1]])
		if d < minLen {
			minLen = d
		}
		if d > maxLen {
			maxLen = d
		}
	}
	if maxLen == 0 || math.IsInf(minLen, 1) || minLen == 0 {
		return 1
	}
	return maxLen / minLen
}

// IsIndependent reports whether no two nodes of s are adjacent in g.
func (g *Graph) IsIndependent(s []int) bool {
	inSet := make(map[int]bool, len(s))
	for _, v := range s {
		inSet[v] = true
	}
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
	inSet := make(map[int]bool, len(s))
	for _, v := range s {
		inSet[v] = true
	}
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

// GreedyMIS returns the lexicographically-first maximal independent set of
// the nodes in domain (all nodes when domain is nil), considering nodes in
// ascending order. The result is sorted.
func (g *Graph) GreedyMIS(domain []int) []int {
	nodes := domain
	if nodes == nil {
		nodes = make([]int, g.n)
		for i := range nodes {
			nodes[i] = i
		}
	} else {
		nodes = append([]int(nil), nodes...)
		sort.Ints(nodes)
		nodes = dedupSorted(nodes)
	}
	inDomain := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		inDomain[v] = true
	}
	blocked := make(map[int]bool)
	var mis []int
	for _, v := range nodes {
		if blocked[v] {
			continue
		}
		mis = append(mis, v)
		for _, w := range g.adj[v] {
			if inDomain[w] {
				blocked[w] = true
			}
		}
	}
	return mis
}

// LabelMIS computes a maximal independent set of the nodes in domain using
// the label-ordering rule of the ruler/competitor algorithm the paper
// adapts from Schneider–Wattenhofer [47]: a node joins the MIS when its
// label is a strict local minimum among undecided neighbours; ties are
// broken by node id. Labels need not be unique; with unique labels the
// result is a maximal independent set of domain.
//
// The returned set is sorted. This function models the *outcome* of the
// distributed MIS computation; the distributed simulation of it below the
// MAC layer lives in package approgress.
func (g *Graph) LabelMIS(domain []int, labels map[int]uint64) []int {
	nodes := append([]int(nil), domain...)
	sort.Ints(nodes)
	nodes = dedupSorted(nodes)
	inDomain := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		inDomain[v] = true
	}
	undecided := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		undecided[v] = true
	}
	var mis []int
	inMIS := make(map[int]bool)
	for len(undecided) > 0 {
		progress := false
		// Collect undecided nodes in deterministic order.
		var rem []int
		for v := range undecided {
			rem = append(rem, v)
		}
		sort.Ints(rem)
		var joiners []int
		for _, v := range rem {
			lv := labels[v]
			isMin := true
			for _, w := range g.adj[v] {
				if !inDomain[w] || !undecided[w] {
					continue
				}
				lw := labels[w]
				if lw < lv || (lw == lv && w < v) {
					isMin = false
					break
				}
			}
			if isMin {
				joiners = append(joiners, v)
			}
		}
		for _, v := range joiners {
			if !undecided[v] {
				continue
			}
			// A neighbour may have joined in this same sweep; re-check.
			conflict := false
			for _, w := range g.adj[v] {
				if inMIS[w] {
					conflict = true
					break
				}
			}
			if conflict {
				delete(undecided, v)
				continue
			}
			mis = append(mis, v)
			inMIS[v] = true
			delete(undecided, v)
			progress = true
			for _, w := range g.adj[v] {
				if inDomain[w] {
					delete(undecided, w)
				}
			}
		}
		if !progress {
			// Can only happen with adversarial duplicate labels; fall back
			// to greedy completion to preserve maximality.
			for v := range undecided {
				rem = append(rem, v)
			}
			sort.Ints(rem)
			for _, v := range rem {
				if !undecided[v] {
					continue
				}
				conflict := false
				for _, w := range g.adj[v] {
					if inMIS[w] {
						conflict = true
						break
					}
				}
				if !conflict {
					mis = append(mis, v)
					inMIS[v] = true
				}
				delete(undecided, v)
			}
		}
	}
	sort.Ints(mis)
	return mis
}

// GrowthBound estimates the growth-bounding function f(r) of the paper's
// Definition 4.1 empirically: for each node it computes the size of a
// maximal independent set restricted to the r-neighbourhood and returns the
// maximum over all nodes.
func (g *Graph) GrowthBound(r int) int {
	max := 0
	for v := 0; v < g.n; v++ {
		hood := g.NeighborhoodR(v, r)
		if size := len(g.GreedyMIS(hood)); size > max {
			max = size
		}
	}
	return max
}
