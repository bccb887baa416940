package geom

import "math"

// CellIndex is an immutable, densely numbered decomposition of an indexed
// point set into square lattice cells (cell c of a point p is
// (floor(p.X/cell), floor(p.Y/cell))). It is the fast SINR evaluator's
// index and serves nothing else (topology generation, MinPairwiseDist and
// unit-disk graphs use Buckets). It answers the queries the evaluator's
// cell lattice is built on: which cell does a node live in, which nodes
// live in a cell, which occupied cell sits at given lattice coordinates (so
// a caller can walk the cells around a point), and what are the lattice
// coordinates of a cell so that conservative cell-pair distance bounds
// (CellOffsetDistBounds) can be looked up by integer offset.
//
// Cells are numbered densely in first-occurrence order of the input points,
// so the numbering is deterministic for a fixed point slice. The node lists
// are stored in one CSR arena; a CellIndex performs no allocation after
// construction and is safe for concurrent readers.
//
// The inverse map, lattice coordinates to dense id, is a table over the
// lattice rectangle (−1 for an empty cell) whenever the rectangle holds at
// most max(cellTablePerCell · occupied cells, cellTableMin) cells. Outlier
// geometry — clusters so far apart that the rectangle is mostly empty —
// keeps a map instead, so the index stays O(occupied cells) wherever the
// points sit.
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

	cellOf []int32 // node id -> dense cell id
	start  []int32 // CSR offsets: nodes of cell c are nodes[start[c]:start[c+1]]
	nodes  []int32 // node ids grouped by cell
	cx, cy []int   // dense cell id -> lattice coords relative to (minCX, minCY)
	// table[cx·(spanY+1)+cy] is the dense id of the cell at relative
	// coordinates (cx, cy), −1 if none; nil when the rectangle exceeds the
	// cap, and ids holds the occupied cells instead.
	table  []int32
	ids    map[cellKey]int32
	cursor []int32 // CSR scatter scratch, reused across ApplyChurn calls
}

// cellKey identifies one lattice cell of a CellIndex by its relative
// coordinates.
type cellKey struct {
	cx, cy int
}

// cellTablePerCell and cellTableMin cap the dense cell table relative to
// occupancy, by the rule the SINR lattice applies to its per-offset tables
// (which span twice the rectangle, so every lattice with offset tables also
// has a cell table): a filled rectangle needs one entry per cell, and
// small deployments may always spend cellTableMin entries (4 KiB).
const (
	cellTablePerCell = 16
	cellTableMin     = 1 << 10
)

// tableFits reports whether a w×h rectangle is within the cell table's cap
// for the given number of occupied cells. Bounding each side first keeps
// the product from overflowing on outlier geometry.
func tableFits(w, h, cells int) bool {
	limit := max(cellTablePerCell*cells, cellTableMin)
	return w <= limit && h <= limit && w*h <= limit
}

// NewCellIndex decomposes the points into square cells of the given side
// length. It panics if cell is not positive. Every p.X/cell and p.Y/cell
// must be finite and well inside the int range (sinr.MaxCoordinate bounds
// the deployments the SINR evaluator indexes).
//
// One pass finds the lattice rectangle, a second numbers the cells. A
// rectangle within the cap for len(points) occupied cells numbers them on
// the table; if the cells then turn out too few for it, the table is
// traded for the map before the index is returned. A wider rectangle
// numbers them on the map alone.
func NewCellIndex(points []Point, cell float64) *CellIndex {
	if cell <= 0 || math.IsNaN(cell) {
		panic("geom: cell index cell size must be positive")
	}
	n := len(points)
	ci := &CellIndex{cell: cell, cellOf: make([]int32, n)}
	if n > 0 {
		minX, minY := math.MaxInt, math.MaxInt
		maxX, maxY := math.MinInt, math.MinInt
		for _, p := range points {
			kx, ky := int(math.Floor(p.X/cell)), int(math.Floor(p.Y/cell))
			minX, maxX = min(minX, kx), max(maxX, kx)
			minY, maxY = min(minY, ky), max(maxY, ky)
		}
		ci.minCX, ci.minCY = minX, minY
		ci.spanX, ci.spanY = maxX-minX, maxY-minY
	}
	w, h := ci.spanX+1, ci.spanY+1
	if tableFits(w, h, n) {
		ci.table = make([]int32, w*h)
		for i := range ci.table {
			ci.table[i] = -1
		}
	} else {
		ci.ids = make(map[cellKey]int32)
	}
	for i, p := range points {
		ci.cellOf[i] = ci.intern(ci.PointCoord(p))
	}
	nc := len(ci.cx)
	if ci.table != nil && !tableFits(w, h, nc) {
		ci.table = nil
		ci.ids = make(map[cellKey]int32, nc)
		for c := range nc {
			ci.ids[cellKey{cx: ci.cx[c], cy: ci.cy[c]}] = int32(c)
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

// intern returns the dense id of the cell at relative coordinates (cx, cy)
// inside the lattice rectangle, numbering it next when it is not yet
// occupied.
func (ci *CellIndex) intern(cx, cy int) int32 {
	if ci.table != nil {
		t := &ci.table[cx*(ci.spanY+1)+cy]
		if *t < 0 {
			*t = ci.appendCell(cx, cy)
		}
		return *t
	}
	k := cellKey{cx: cx, cy: cy}
	c, ok := ci.ids[k]
	if !ok {
		c = ci.appendCell(cx, cy)
		ci.ids[k] = c
	}
	return c
}

// appendCell numbers the cell at relative coordinates (cx, cy) next.
func (ci *CellIndex) appendCell(cx, cy int) int32 {
	c := int32(len(ci.cx))
	ci.cx = append(ci.cx, cx)
	ci.cy = append(ci.cy, cy)
	return c
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
	if ci.table == nil {
		return ci.cellAtMap(cx, cy)
	}
	if uint(cx) > uint(ci.spanX) || uint(cy) > uint(ci.spanY) {
		return -1
	}
	return int(ci.table[cx*(ci.spanY+1)+cy])
}

// cellAtMap is CellAt on an index whose rectangle exceeds the table's cap.
func (ci *CellIndex) cellAtMap(cx, cy int) int {
	c, ok := ci.ids[cellKey{cx: cx, cy: cy}]
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
// numbering and written into the cell table (or map); a cell emptied by
// churn keeps its id, so NumCells never shrinks. The CSR arena is rebuilt
// by one count/prefix/scatter pass — O(len(points) + NumCells), with no
// allocation once the cell arenas have grown to their steady-state sizes.
func (ci *CellIndex) ApplyChurn(points []Point, dirty []int) bool {
	// Pass 1 is read-only: if any dirty point escapes the lattice the index
	// must stay untouched so the caller can still read it while rebuilding.
	for _, id := range dirty {
		cx, cy := ci.PointCoord(points[id])
		if uint(cx) > uint(ci.spanX) || uint(cy) > uint(ci.spanY) {
			return false
		}
	}
	for _, id := range dirty {
		ci.cellOf[id] = ci.intern(ci.PointCoord(points[id]))
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
