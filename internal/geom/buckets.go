package geom

import "math"

// Buckets is a dense bucket grid: square cells tiling a rectangle, each
// cell a linked list of point ids. It answers the one question placement,
// MinPairwiseDist, the epoch spacing check and unit-disk graphs ask —
// which points lie within one cell side of p — with one query,
// AppendNear. Points are inserted one at a time, so a caller can query a
// candidate against the points placed so far before inserting it.
//
// A point outside the rectangle is clamped into its border cells, which
// keeps every query complete: clamping never moves two points further
// apart in either axis.
type Buckets struct {
	min        Point
	side       float64 // cell side; +Inf when one cell holds every point
	w, h       int
	head, next []int32 // head[x*h+y]: last id inserted into cell (x, y), -1 if none; next[id]: the id inserted there before it
}

// NewBuckets returns an empty grid over box for about n points, with cells
// of side at least side. Cells are widened until the grid has O(n) of
// them, so a point far from the rest makes coarse cells rather than a huge
// array. A box that is a single point with side 0, or an extent that is
// NaN or overflows to +Inf, gets a single cell.
func NewBuckets(box Rect, side float64, n int) *Buckets {
	nf := float64(max(n, 1))
	side = max(side, math.Sqrt(box.Area()/(4*nf)), box.Width()/(4*nf), box.Height()/(4*nf))
	b := &Buckets{min: box.Min, side: math.Inf(1), w: 1, h: 1, next: make([]int32, n)}
	if side > 0 && !math.IsInf(side, 1) {
		b.side = side
		b.w, b.h = int(box.Width()/side)+1, int(box.Height()/side)+1
	}
	b.head = make([]int32, b.w*b.h)
	for i := range b.head {
		b.head[i] = -1
	}
	return b
}

// Insert adds the point p with identifier id. Ids must be non-negative and
// unique.
func (b *Buckets) Insert(id int, p Point) {
	if id >= len(b.next) {
		b.next = append(b.next, make([]int32, id+1-len(b.next))...)
	}
	x, y := b.cell(p)
	b.next[id] = b.head[x*b.h+y]
	b.head[x*b.h+y] = int32(id)
}

// Fill inserts every point of pts under its index, in index order, and
// leaves the grid exactly as len(pts) calls Insert(i, pts[i]) would: the
// same cells and the same list order. It is one loop with the cell
// computed inline, for a caller that indexes a whole point set before its
// first query; Insert is not inlined, so Fill saves a call per point.
// None of the ids 0 … len(pts)−1 may have been inserted before.
func (b *Buckets) Fill(pts []Point) {
	if len(pts) > len(b.next) {
		b.next = append(b.next, make([]int32, len(pts)-len(b.next))...)
	}
	next, head := b.next[:len(pts)], b.head
	minX, minY, side, w, h := b.min.X, b.min.Y, b.side, b.w, b.h
	for i, p := range pts {
		c := clampCell((p.X-minX)/side, w)*h + clampCell((p.Y-minY)/side, h)
		next[i] = head[c]
		head[c] = int32(i)
	}
}

// AppendNear appends to dst the ids in the cells around p and returns the
// extended slice: a superset of every inserted point within one cell side
// of p. The window is the 5×5 block of cells around p's cell without its
// corners. Two points at most one side apart lie at most one cell apart
// in each axis; floor rounding at a cell edge can add one more, which the
// outer ring covers, but never in both axes at once, which would need a
// gap of more than one side in each.
func (b *Buckets) AppendNear(p Point, dst []int32) []int32 {
	cx, cy := b.cell(p)
	for x := max(cx-2, 0); x <= min(cx+2, b.w-1); x++ {
		dy := 2
		if x == cx-2 || x == cx+2 {
			dy = 1
		}
		for y := max(cy-dy, 0); y <= min(cy+dy, b.h-1); y++ {
			for j := b.head[x*b.h+y]; j >= 0; j = b.next[j] {
				dst = append(dst, j)
			}
		}
	}
	return dst
}

// cell returns the grid coordinates of the cell holding p, clamped into
// the grid.
func (b *Buckets) cell(p Point) (x, y int) {
	return clampCell((p.X-b.min.X)/b.side, b.w), clampCell((p.Y-b.min.Y)/b.side, b.h)
}

// clampCell floors a cell coordinate into [0, k). The comparisons are
// made before the int conversion, so a NaN or out-of-range value never
// reaches it.
func clampCell(f float64, k int) int {
	if !(f > 0) {
		return 0
	}
	if f >= float64(k-1) {
		return k - 1
	}
	return int(f)
}
