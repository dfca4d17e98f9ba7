// Package geom provides exact integer rectilinear geometry primitives used
// throughout the AAPSM flow: points, axis-aligned rectangles, line segments,
// interval algebra and orientation predicates.
//
// All coordinates are int64 nanometers. Every predicate is exact: orientation
// tests are evaluated with int64 cross products, which cannot overflow for
// coordinates below 2^31 in magnitude (a 2-meter die side), far beyond any
// realistic layout extent.
package geom

import "fmt"

// Point is a location in the layout plane, in nanometers.
type Point struct {
	X, Y int64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int64) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) int64 { return p.X*q.Y - p.Y*q.X }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Orientation classifies the turn a→b→c.
// It returns +1 for a counter-clockwise turn, -1 for clockwise, 0 for
// collinear points.
func Orientation(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	switch {
	case v > 0:
		return +1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// Rect is an axis-aligned rectangle with inclusive-exclusive style extents:
// it spans [X0,X1) × [Y0,Y1) conceptually, but all geometric tests in this
// package treat it as the closed region [X0,X1] × [Y0,Y1] because layout
// design rules are expressed on closed shapes. Invariant: X0 <= X1, Y0 <= Y1.
type Rect struct {
	X0, Y0, X1, Y1 int64
}

// R builds a rectangle from two corner coordinates in any order.
func R(x0, y0, x1, y1 int64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// Width returns the horizontal extent.
func (r Rect) Width() int64 { return r.X1 - r.X0 }

// Height returns the vertical extent.
func (r Rect) Height() int64 { return r.Y1 - r.Y0 }

// MinDim returns the smaller of width and height — the "drawn width" used to
// classify critical features.
func (r Rect) MinDim() int64 {
	w, h := r.Width(), r.Height()
	if w < h {
		return w
	}
	return h
}

// MaxDim returns the larger of width and height.
func (r Rect) MaxDim() int64 {
	w, h := r.Width(), r.Height()
	if w > h {
		return w
	}
	return h
}

// Area returns the rectangle area in nm².
func (r Rect) Area() int64 { return r.Width() * r.Height() }

// Empty reports whether the rectangle has zero area.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Center returns the center point, rounded toward negative infinity.
// Center rounds halves toward negative infinity (arithmetic shift), not
// toward zero: floor((v+2t)>>1) == (v>>1)+t, so centers translate with the
// rectangle even across the origin. The cluster signatures that let
// identical clusters share a solve rely on this covariance.
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) >> 1, (r.Y0 + r.Y1) >> 1} }

// Contains reports whether p lies in the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Translate returns r shifted by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.X0 + d.X, r.Y0 + d.Y, r.X1 + d.X, r.Y1 + d.Y}
}

// Intersects reports whether the closed rectangles share at least a point.
func (r Rect) Intersects(s Rect) bool {
	return r.X0 <= s.X1 && s.X0 <= r.X1 && r.Y0 <= s.Y1 && s.Y0 <= r.Y1
}

// Overlaps reports whether the open interiors intersect (positive-area
// overlap).
func (r Rect) Overlaps(s Rect) bool {
	return r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// Intersect returns the common region of two rectangles. The result is
// normalized to an empty rectangle at the origin when they do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		X0: max(r.X0, s.X0), Y0: max(r.Y0, s.Y0),
		X1: min(r.X1, s.X1), Y1: min(r.Y1, s.Y1),
	}
	if out.X0 > out.X1 || out.Y0 > out.Y1 {
		return Rect{}
	}
	return out
}

// Union returns the bounding box of both rectangles. Empty rectangles are
// ignored so a zero Rect is a valid accumulator identity.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() && r == (Rect{}) {
		return s
	}
	if s.Empty() && s == (Rect{}) {
		return r
	}
	return Rect{
		X0: min(r.X0, s.X0), Y0: min(r.Y0, s.Y0),
		X1: max(r.X1, s.X1), Y1: max(r.Y1, s.Y1),
	}
}

// Expand grows the rectangle by d on every side (shrinks for negative d;
// callers must keep the result non-degenerate).
func (r Rect) Expand(d int64) Rect {
	return Rect{r.X0 - d, r.Y0 - d, r.X1 + d, r.Y1 + d}
}

// XInterval returns the projection of r on the x axis.
func (r Rect) XInterval() Interval { return Interval{r.X0, r.X1} }

// YInterval returns the projection of r on the y axis.
func (r Rect) YInterval() Interval { return Interval{r.Y0, r.Y1} }

// GapX returns the horizontal free space between r and s (0 when their x
// projections touch or overlap).
func GapX(r, s Rect) int64 {
	switch {
	case r.X1 <= s.X0:
		return s.X0 - r.X1
	case s.X1 <= r.X0:
		return r.X0 - s.X1
	default:
		return 0
	}
}

// GapY returns the vertical free space between r and s.
func GapY(r, s Rect) int64 {
	switch {
	case r.Y1 <= s.Y0:
		return s.Y0 - r.Y1
	case s.Y1 <= r.Y0:
		return r.Y0 - s.Y1
	default:
		return 0
	}
}

// Separation returns the rectilinear clearance between two rectangles: the
// largest of the axis gaps. It is 0 when the closed rectangles touch or
// overlap in both axes. This is the quantity design-rule spacing constraints
// are written against for axis-aligned shapes.
func Separation(r, s Rect) int64 {
	gx, gy := GapX(r, s), GapY(r, s)
	if gx > gy {
		return gx
	}
	return gy
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.X0, r.Y0, r.X1, r.Y1)
}

// Interval is a closed 1-D range [Lo, Hi].
type Interval struct {
	Lo, Hi int64
}

// Valid reports Lo <= Hi.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi }

// Len returns Hi-Lo.
func (iv Interval) Len() int64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies inside the closed interval.
func (iv Interval) Contains(v int64) bool { return v >= iv.Lo && v <= iv.Hi }

// ContainsOpen reports whether v lies strictly inside the interval.
func (iv Interval) ContainsOpen(v int64) bool { return v > iv.Lo && v < iv.Hi }

// Intersects reports whether the closed intervals share a point.
func (iv Interval) Intersects(jv Interval) bool { return iv.Lo <= jv.Hi && jv.Lo <= iv.Hi }

// Intersect returns the common sub-interval; invalid when disjoint.
func (iv Interval) Intersect(jv Interval) Interval {
	return Interval{max(iv.Lo, jv.Lo), min(iv.Hi, jv.Hi)}
}

// Segment is a straight line segment between two points. Degenerate
// (zero-length) segments are permitted and intersect only shapes containing
// their single point.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// Bounds returns the bounding rectangle of the segment.
func (s Segment) Bounds() Rect { return R(s.A.X, s.A.Y, s.B.X, s.B.Y) }

// Midpoint returns the segment midpoint (floor division).
// Midpoint floors like Rect.Center, keeping midpoints translation-covariant
// for negative coordinates.
func (s Segment) Midpoint() Point { return Point{(s.A.X + s.B.X) >> 1, (s.A.Y + s.B.Y) >> 1} }

// onSegment reports whether collinear point p lies on segment s.
func onSegment(s Segment, p Point) bool {
	return min(s.A.X, s.B.X) <= p.X && p.X <= max(s.A.X, s.B.X) &&
		min(s.A.Y, s.B.Y) <= p.Y && p.Y <= max(s.A.Y, s.B.Y)
}

// SegmentsIntersect reports whether two closed segments share at least one
// point. It is exact for int64 coordinates.
func SegmentsIntersect(s, t Segment) bool {
	d1 := Orientation(t.A, t.B, s.A)
	d2 := Orientation(t.A, t.B, s.B)
	d3 := Orientation(s.A, s.B, t.A)
	d4 := Orientation(s.A, s.B, t.B)
	if d1 != d2 && d3 != d4 && d1 != 0 && d2 != 0 && d3 != 0 && d4 != 0 {
		return true
	}
	// Mixed and collinear cases.
	if d1 == 0 && onSegment(t, s.A) {
		return true
	}
	if d2 == 0 && onSegment(t, s.B) {
		return true
	}
	if d3 == 0 && onSegment(s, t.A) {
		return true
	}
	if d4 == 0 && onSegment(s, t.B) {
		return true
	}
	// Proper crossing with no endpoint on the other segment.
	return d1 != d2 && d3 != d4
}

// PointOnSegment reports whether p lies on the closed segment s.
func PointOnSegment(p Point, s Segment) bool {
	return Orientation(s.A, s.B, p) == 0 && onSegment(s, p)
}

// CollinearOverlap reports whether two segments are collinear and share a
// sub-segment of positive length.
func CollinearOverlap(s, t Segment) bool {
	if Orientation(s.A, s.B, t.A) != 0 || Orientation(s.A, s.B, t.B) != 0 {
		return false
	}
	if s.A == s.B { // degenerate s cannot contribute positive length
		return false
	}
	if !SegmentsIntersect(s, t) {
		return false
	}
	return collinearOverlapBeyondPoint(s, t)
}

// collinearOverlapBeyondPoint reports whether two collinear segments sharing
// an endpoint overlap in more than that endpoint.
func collinearOverlapBeyondPoint(s, t Segment) bool {
	// Project on the dominant axis.
	var sLo, sHi, tLo, tHi int64
	if abs64(s.B.X-s.A.X)+abs64(t.B.X-t.A.X) >= abs64(s.B.Y-s.A.Y)+abs64(t.B.Y-t.A.Y) {
		sLo, sHi = min(s.A.X, s.B.X), max(s.A.X, s.B.X)
		tLo, tHi = min(t.A.X, t.B.X), max(t.A.X, t.B.X)
	} else {
		sLo, sHi = min(s.A.Y, s.B.Y), max(s.A.Y, s.B.Y)
		tLo, tHi = min(t.A.Y, t.B.Y), max(t.A.Y, t.B.Y)
	}
	lo, hi := max(sLo, tLo), min(sHi, tHi)
	return lo < hi
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// Abs returns |a| for int64.
func Abs(a int64) int64 { return abs64(a) }
