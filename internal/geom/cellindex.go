package geom

import "math"

// CellIndex is an immutable, densely numbered decomposition of an indexed
// point set into square lattice cells (cell c of a point p is
// (floor(p.X/cell), floor(p.Y/cell))). It is the fast SINR evaluator's
// index and serves nothing else (topology generation, MinPairwiseDist and
// unit-disk graphs use Buckets). It answers the queries both evaluator
// regimes are built on: which cell does a node live in, which nodes live
// in a cell, which occupied cell sits at given lattice coordinates (so a
// caller can walk the cells around a point), and what are the lattice
// coordinates of a cell so that conservative cell-pair distance bounds
// (CellOffsetDistBounds) can be looked up by integer offset.
//
// Cells are numbered densely in first-occurrence order of the input points,
// so the numbering is deterministic for a fixed point slice. The node lists
// are stored in one CSR arena; a CellIndex performs no allocation after
// construction and is safe for concurrent readers.
//
// The index is not strictly immutable: ApplyChurn re-buckets moved points
// in place (appending dense ids for cells that first become occupied inside
// the original lattice rectangle) so that mobility epochs can patch the CSR
// instead of rebuilding the decomposition. Mutation and concurrent reads
// must not overlap; between mutations concurrent readers remain safe.
type CellIndex struct {
	cell         float64
	minCX, minCY int
	spanX, spanY int

	cellOf []int32           // node id -> dense cell id
	start  []int32           // CSR offsets: nodes of cell c are nodes[start[c]:start[c+1]]
	nodes  []int32           // node ids grouped by cell
	cx, cy []int             // dense cell id -> lattice coords relative to (minCX, minCY)
	ids    map[cellKey]int32 // lattice cell -> dense id, retained for ApplyChurn
	cursor []int32           // CSR scatter scratch, reused across ApplyChurn calls
}

// cellKey identifies one lattice cell of a CellIndex.
type cellKey struct {
	cx, cy int
}

// NewCellIndex decomposes the points into square cells of the given side
// length. It panics if cell is not positive. Every p.X/cell and p.Y/cell
// must be finite and well inside the int range (sinr.MaxCoordinate bounds
// the deployments the SINR evaluator indexes).
func NewCellIndex(points []Point, cell float64) *CellIndex {
	if cell <= 0 || math.IsNaN(cell) {
		panic("geom: cell index cell size must be positive")
	}
	n := len(points)
	ci := &CellIndex{cell: cell, cellOf: make([]int32, n)}
	ids := make(map[cellKey]int32, n)
	keys := make([]cellKey, 0, n)
	for i, p := range points {
		k := cellKey{cx: int(math.Floor(p.X / cell)), cy: int(math.Floor(p.Y / cell))}
		id, ok := ids[k]
		if !ok {
			id = int32(len(keys))
			ids[k] = id
			keys = append(keys, k)
		}
		ci.cellOf[i] = id
	}
	ci.ids = ids
	nc := len(keys)
	ci.cx = make([]int, nc)
	ci.cy = make([]int, nc)
	if nc > 0 {
		ci.minCX, ci.minCY = keys[0].cx, keys[0].cy
		maxCX, maxCY := ci.minCX, ci.minCY
		for _, k := range keys {
			ci.minCX = min(ci.minCX, k.cx)
			ci.minCY = min(ci.minCY, k.cy)
			maxCX = max(maxCX, k.cx)
			maxCY = max(maxCY, k.cy)
		}
		ci.spanX, ci.spanY = maxCX-ci.minCX, maxCY-ci.minCY
		for c, k := range keys {
			ci.cx[c] = k.cx - ci.minCX
			ci.cy[c] = k.cy - ci.minCY
		}
	}
	// CSR fill: count, prefix, scatter.
	counts := make([]int32, nc+1)
	for _, c := range ci.cellOf {
		counts[c+1]++
	}
	for c := 0; c < nc; c++ {
		counts[c+1] += counts[c]
	}
	ci.start = counts
	ci.nodes = make([]int32, n)
	cursor := make([]int32, nc)
	copy(cursor, ci.start[:nc])
	for i, c := range ci.cellOf {
		ci.nodes[cursor[c]] = int32(i)
		cursor[c]++
	}
	return ci
}

// NumCells returns the number of occupied cells.
func (ci *CellIndex) NumCells() int { return len(ci.cx) }

// Span returns the lattice extent: occupied cell coordinates lie in
// [0, spanX] × [0, spanY], so offsets between two occupied cells lie in
// [-spanX, spanX] × [-spanY, spanY].
func (ci *CellIndex) Span() (spanX, spanY int) { return ci.spanX, ci.spanY }

// CellOf returns the dense id of the cell containing node id.
func (ci *CellIndex) CellOf(id int) int { return int(ci.cellOf[id]) }

// Coord returns the lattice coordinates of cell c, relative to the minimum
// occupied cell (both components are in [0, Span()]).
func (ci *CellIndex) Coord(c int) (cx, cy int) { return ci.cx[c], ci.cy[c] }

// Nodes returns the ids of the nodes in cell c. The slice aliases the
// index's arena and must not be modified.
func (ci *CellIndex) Nodes(c int) []int32 { return ci.nodes[ci.start[c]:ci.start[c+1]] }

// PointCoord returns the lattice coordinates of the cell containing p,
// relative to the minimum occupied cell (the Coord convention). The result
// may fall outside [0, Span()] when p lies outside the occupied lattice.
func (ci *CellIndex) PointCoord(p Point) (cx, cy int) {
	return int(math.Floor(p.X/ci.cell)) - ci.minCX, int(math.Floor(p.Y/ci.cell)) - ci.minCY
}

// CellAt returns the dense id of the occupied cell at the given relative
// lattice coordinates (the Coord convention), or -1 when no node has ever
// occupied that cell. It is the inverse of Coord and lets callers walk the
// lattice around a point — the evaluator's sparse candidate enumeration
// and the lattice's cell-level culling are built on it.
func (ci *CellIndex) CellAt(cx, cy int) int {
	c, ok := ci.ids[cellKey{cx: cx + ci.minCX, cy: cy + ci.minCY}]
	if !ok {
		return -1
	}
	return int(c)
}

// Rect returns the closed square region of cell c in plane coordinates.
func (ci *CellIndex) Rect(c int) Rect {
	x := float64(ci.minCX+ci.cx[c]) * ci.cell
	y := float64(ci.minCY+ci.cy[c]) * ci.cell
	return Rect{Min: Point{X: x, Y: y}, Max: Point{X: x + ci.cell, Y: y + ci.cell}}
}

// ApplyChurn re-buckets moved points in place. points is the full
// post-epoch position slice over the same nodes the index was built on
// (node i at points[i]), and dirty lists the node ids whose position
// changed.
//
// It returns false — leaving the index completely unchanged — when any dirty
// point falls outside the lattice rectangle spanned by the original
// decomposition: the per-offset tables callers build on top of Span would no
// longer cover the deployment, so they must rebuild from scratch. Cells that
// first become occupied inside the rectangle are appended to the dense
// numbering (a cell emptied by churn keeps its id, so NumCells never
// shrinks), and the CSR arena is rebuilt by one count/prefix/scatter pass —
// O(len(points) + NumCells), with no allocation once the cell arenas have
// grown to their steady-state sizes.
func (ci *CellIndex) ApplyChurn(points []Point, dirty []int) bool {
	// Pass 1 is read-only: if any dirty point escapes the lattice the index
	// must stay untouched so the caller can still read it while rebuilding.
	for _, id := range dirty {
		p := points[id]
		kx := int(math.Floor(p.X / ci.cell))
		ky := int(math.Floor(p.Y / ci.cell))
		if kx < ci.minCX || kx > ci.minCX+ci.spanX || ky < ci.minCY || ky > ci.minCY+ci.spanY {
			return false
		}
	}
	for _, id := range dirty {
		p := points[id]
		k := cellKey{cx: int(math.Floor(p.X / ci.cell)), cy: int(math.Floor(p.Y / ci.cell))}
		c, ok := ci.ids[k]
		if !ok {
			c = int32(len(ci.cx))
			ci.ids[k] = c
			ci.cx = append(ci.cx, k.cx-ci.minCX)
			ci.cy = append(ci.cy, k.cy-ci.minCY)
		}
		ci.cellOf[id] = c
	}
	// CSR rebuild: count, prefix, scatter, reusing the arenas.
	nc := len(ci.cx)
	if nc+1 <= cap(ci.start) {
		ci.start = ci.start[:nc+1]
	} else {
		ci.start = make([]int32, nc+1)
	}
	for c := range ci.start {
		ci.start[c] = 0
	}
	for _, c := range ci.cellOf {
		ci.start[c+1]++
	}
	for c := 0; c < nc; c++ {
		ci.start[c+1] += ci.start[c]
	}
	if nc <= cap(ci.cursor) {
		ci.cursor = ci.cursor[:nc]
	} else {
		ci.cursor = make([]int32, nc)
	}
	copy(ci.cursor, ci.start[:nc])
	for i, c := range ci.cellOf {
		ci.nodes[ci.cursor[c]] = int32(i)
		ci.cursor[c]++
	}
	return true
}

// CellOffsetDistBounds returns conservative bounds on the distance between
// any point of one square lattice cell and any point of the cell (dx, dy)
// lattice steps away, for cells of the given side length: any such pair is
// at distance in [dmin, dmax]. The bounds depend only on the offset, which
// is what lets the SINR cell lattice precompute per-offset power bounds once
// and share them across every receiver-cell/transmitter-cell pair.
//
//sinrlint:allow powfree construction-time: called once per lattice offset when bounds/shard tables are built, never per slot
func CellOffsetDistBounds(dx, dy int, cell float64) (dmin, dmax float64) {
	ax, ay := dx, dy
	if ax < 0 {
		ax = -ax
	}
	if ay < 0 {
		ay = -ay
	}
	gx, gy := float64(ax-1), float64(ay-1)
	if gx < 0 {
		gx = 0
	}
	if gy < 0 {
		gy = 0
	}
	dmin = cell * math.Hypot(gx, gy)
	dmax = cell * math.Hypot(float64(ax+1), float64(ay+1))
	return dmin, dmax
}
