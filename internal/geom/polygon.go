package geom

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNotRectilinear is returned for polygons whose edges are not all
// axis-parallel or that are otherwise malformed.
var ErrNotRectilinear = errors.New("geom: polygon is not simple rectilinear")

// DecomposeRectilinear splits a simple rectilinear polygon into
// non-overlapping rectangles that exactly cover it, using horizontal slab
// decomposition. Vertices are given in order (either orientation); the
// closing edge back to the first vertex is implicit. Consecutive duplicate
// and collinear vertices are tolerated; self-intersecting polygons yield
// ErrNotRectilinear.
func DecomposeRectilinear(pts []Point) ([]Rect, error) {
	pts = normalizePolygon(pts)
	if len(pts) < 4 {
		return nil, fmt.Errorf("%w: %d effective vertices", ErrNotRectilinear, len(pts))
	}
	// Validate edges axis-parallel and collect vertical edges + slab ys.
	type vedge struct {
		x      int64
		y0, y1 int64 // y0 < y1
	}
	var vedges []vedge
	ys := make([]int64, 0, len(pts))
	for i, p := range pts {
		q := pts[(i+1)%len(pts)]
		switch {
		case p.X == q.X && p.Y != q.Y:
			lo, hi := p.Y, q.Y
			if lo > hi {
				lo, hi = hi, lo
			}
			vedges = append(vedges, vedge{p.X, lo, hi})
			ys = append(ys, lo, hi)
		case p.Y == q.Y && p.X != q.X:
			// horizontal edge: nothing to record
		default:
			return nil, fmt.Errorf("%w: edge %v-%v is diagonal or degenerate", ErrNotRectilinear, p, q)
		}
	}
	if len(vedges) == 0 {
		return nil, ErrNotRectilinear
	}
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	ys = dedupInt64(ys)

	var out []Rect
	for i := 0; i+1 < len(ys); i++ {
		yLo, yHi := ys[i], ys[i+1]
		// Vertical edges spanning this slab, by x.
		var xs []int64
		for _, e := range vedges {
			if e.y0 <= yLo && e.y1 >= yHi {
				xs = append(xs, e.x)
			}
		}
		if len(xs)%2 != 0 {
			return nil, fmt.Errorf("%w: odd crossing count in slab [%d,%d)", ErrNotRectilinear, yLo, yHi)
		}
		sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
		for k := 0; k+1 < len(xs); k += 2 {
			if xs[k] == xs[k+1] {
				return nil, fmt.Errorf("%w: coincident vertical edges at x=%d", ErrNotRectilinear, xs[k])
			}
			out = append(out, Rect{xs[k], yLo, xs[k+1], yHi})
		}
	}
	if len(out) == 0 {
		return nil, ErrNotRectilinear
	}
	// Sanity: decomposed area must equal the polygon's shoelace area.
	var sum int64
	for _, r := range out {
		sum += r.Area()
	}
	if shoe := Abs(shoelace2(pts)) / 2; shoe != sum {
		return nil, fmt.Errorf("%w: area mismatch (self-intersecting?)", ErrNotRectilinear)
	}
	return mergeVertical(out), nil
}

// AxisRect recognizes the common case of DecomposeRectilinear without its
// normalization and sorting: a closed axis-aligned rectangle ring of exactly
// four distinct corners in either winding, optionally followed by a repeat
// of the first, with nonzero area. For such a ring it returns the one
// rectangle DecomposeRectilinear returns; any other ring (duplicate or
// collinear vertices, zero area, more corners) is declined, so the caller
// falls back to DecomposeRectilinear and its result or error.
func AxisRect(pts []Point) (Rect, bool) {
	if len(pts) == 5 && pts[4] == pts[0] {
		pts = pts[:4]
	}
	if len(pts) != 4 {
		return Rect{}, false
	}
	a, b, c, d := pts[0], pts[1], pts[2], pts[3]
	vertFirst := a.X == b.X && b.Y == c.Y && c.X == d.X && d.Y == a.Y
	horizFirst := a.Y == b.Y && b.X == c.X && c.Y == d.Y && d.X == a.X
	if !vertFirst && !horizFirst || a.X == c.X || a.Y == c.Y {
		return Rect{}, false
	}
	return R(a.X, a.Y, c.X, c.Y), true
}

// normalizePolygon removes an explicit closing vertex, consecutive
// duplicates and collinear middle vertices.
func normalizePolygon(pts []Point) []Point {
	if len(pts) > 1 && pts[0] == pts[len(pts)-1] {
		pts = pts[:len(pts)-1]
	}
	// Remove consecutive duplicates.
	var tmp []Point
	for i, p := range pts {
		if i == 0 || p != tmp[len(tmp)-1] {
			tmp = append(tmp, p)
		}
	}
	if len(tmp) > 1 && tmp[0] == tmp[len(tmp)-1] {
		tmp = tmp[:len(tmp)-1]
	}
	// Remove collinear middles (axis-parallel runs).
	var out []Point
	n := len(tmp)
	for i := 0; i < n; i++ {
		prev := tmp[(i-1+n)%n]
		cur := tmp[i]
		next := tmp[(i+1)%n]
		if (prev.X == cur.X && cur.X == next.X) || (prev.Y == cur.Y && cur.Y == next.Y) {
			continue
		}
		out = append(out, cur)
	}
	return out
}

// shoelace2 returns twice the signed polygon area.
func shoelace2(pts []Point) int64 {
	var s int64
	for i, p := range pts {
		q := pts[(i+1)%len(pts)]
		s += p.Cross(q)
	}
	return s
}

// mergeVertical joins vertically adjacent rectangles sharing an x-range,
// shrinking the decomposition without changing coverage.
func mergeVertical(rs []Rect) []Rect {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].X0 != rs[j].X0 {
			return rs[i].X0 < rs[j].X0
		}
		if rs[i].X1 != rs[j].X1 {
			return rs[i].X1 < rs[j].X1
		}
		return rs[i].Y0 < rs[j].Y0
	})
	var out []Rect
	for _, r := range rs {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.X0 == r.X0 && last.X1 == r.X1 && last.Y1 == r.Y0 {
				last.Y1 = r.Y1
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

func dedupInt64(a []int64) []int64 {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
