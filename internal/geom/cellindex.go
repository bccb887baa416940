package geom

import "math"

// CellIndex is an immutable, densely numbered decomposition of an indexed
// point set into the square lattice cells a Grid with the same cell size
// uses (cell c of a point p is (floor(p.X/cell), floor(p.Y/cell))). Where
// Grid answers per-point range queries, CellIndex answers the aggregate
// queries the SINR cell lattice's certified bounds are built on: which cell
// does a node live in, which nodes live in a cell, and what are the lattice
// coordinates of a cell so that conservative cell-pair distance bounds
// (CellOffsetDistBounds) can be looked up by integer offset. The tighter
// per-point variant (PointCellDistBounds) serves callers refining a single
// query point against a cell.
//
// Cells are numbered densely in first-occurrence order of the input points,
// so the numbering is deterministic for a fixed point slice. The node lists
// are stored in one CSR arena; a CellIndex performs no allocation after
// construction and is safe for concurrent readers.
//
// The index is not strictly immutable: ApplyChurn re-buckets a changed
// point set in place (appending dense ids for cells that first become
// occupied inside the original lattice rectangle) so that churn epochs can
// patch the CSR instead of rebuilding the decomposition. Mutation and
// concurrent reads must not overlap; between mutations concurrent readers
// remain safe.
type CellIndex struct {
	cell         float64
	minCX, minCY int
	spanX, spanY int

	cellOf []int32           // node id -> dense cell id
	start  []int32           // CSR offsets: nodes of cell c are nodes[start[c]:start[c+1]]
	nodes  []int32           // node ids grouped by cell
	cx, cy []int32           // dense cell id -> lattice coords relative to (minCX, minCY)
	ids    map[cellKey]int32 // lattice cell -> dense id, retained for ApplyChurn
	cursor []int32           // CSR scatter scratch, reused across ApplyChurn calls
}

// NewCellIndex decomposes the points into square cells of the given side
// length. It panics if cell is not positive, matching NewGrid.
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
	ci.cx = make([]int32, nc)
	ci.cy = make([]int32, nc)
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
			ci.cx[c] = int32(k.cx - ci.minCX)
			ci.cy[c] = int32(k.cy - ci.minCY)
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

// CellSize returns the cell side length.
func (ci *CellIndex) CellSize() float64 { return ci.cell }

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
func (ci *CellIndex) Coord(c int) (cx, cy int) { return int(ci.cx[c]), int(ci.cy[c]) }

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
// lattice around a point — the sharded evaluator's candidate enumeration
// and cell-level culling are built on it.
func (ci *CellIndex) CellAt(cx, cy int) int {
	c, ok := ci.ids[cellKey{cx: cx + ci.minCX, cy: cy + ci.minCY}]
	if !ok {
		return -1
	}
	return int(c)
}

// Rect returns the closed square region of cell c in plane coordinates.
func (ci *CellIndex) Rect(c int) Rect {
	x := float64(ci.minCX+int(ci.cx[c])) * ci.cell
	y := float64(ci.minCY+int(ci.cy[c])) * ci.cell
	return Rect{Min: Point{X: x, Y: y}, Max: Point{X: x + ci.cell, Y: y + ci.cell}}
}

// ApplyChurn re-buckets a churned point set in place. points is the full
// post-epoch position slice (node i at points[i], so the index afterwards
// covers exactly len(points) nodes — shrinking or growing the node count is
// expressed by the slice length) and dirty lists the node ids whose position
// changed, including ids appended at the end.
//
// It returns false — leaving the index completely unchanged — when any dirty
// point falls outside the lattice rectangle spanned by the original
// decomposition: the per-offset tables callers build on top of Span would no
// longer cover the deployment, so they must rebuild from scratch. Cells that
// first become occupied inside the rectangle are appended to the dense
// numbering (a cell emptied by churn keeps its id, so NumCells never
// shrinks), and the CSR arena is rebuilt by one count/prefix/scatter pass —
// O(len(points) + NumCells), with no allocation once the arenas have grown
// to their steady-state sizes.
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
	n := len(points)
	if n <= cap(ci.cellOf) {
		ci.cellOf = ci.cellOf[:n]
	} else {
		grown := make([]int32, n)
		copy(grown, ci.cellOf)
		ci.cellOf = grown
	}
	for _, id := range dirty {
		p := points[id]
		k := cellKey{cx: int(math.Floor(p.X / ci.cell)), cy: int(math.Floor(p.Y / ci.cell))}
		c, ok := ci.ids[k]
		if !ok {
			c = int32(len(ci.cx))
			ci.ids[k] = c
			ci.cx = append(ci.cx, int32(k.cx-ci.minCX))
			ci.cy = append(ci.cy, int32(k.cy-ci.minCY))
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
	if n <= cap(ci.nodes) {
		ci.nodes = ci.nodes[:n]
	} else {
		ci.nodes = make([]int32, n)
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

// PointCellDistBounds returns the minimum and maximum distance from p to
// the closed square cell with absolute lattice coordinates (cx, cy) and the
// given side length: every point q of the cell satisfies
// dmin <= p.Dist(q) <= dmax. The minimum is attained by clamping p into the
// cell, the maximum at the corner farthest from p.
func PointCellDistBounds(p Point, cx, cy int, cell float64) (dmin, dmax float64) {
	lox, hix := float64(cx)*cell, float64(cx+1)*cell
	loy, hiy := float64(cy)*cell, float64(cy+1)*cell
	nx := math.Min(math.Max(p.X, lox), hix)
	ny := math.Min(math.Max(p.Y, loy), hiy)
	dmin = p.Dist(Point{X: nx, Y: ny})
	fx := hix
	if p.X-lox > hix-p.X {
		fx = lox
	}
	fy := hiy
	if p.Y-loy > hiy-p.Y {
		fy = loy
	}
	dmax = p.Dist(Point{X: fx, Y: fy})
	return dmin, dmax
}
