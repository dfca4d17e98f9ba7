package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrientation(t *testing.T) {
	tests := []struct {
		a, b, c Point
		want    int
	}{
		{Pt(0, 0), Pt(1, 0), Pt(1, 1), +1},
		{Pt(0, 0), Pt(1, 0), Pt(1, -1), -1},
		{Pt(0, 0), Pt(1, 1), Pt(2, 2), 0},
		{Pt(0, 0), Pt(0, 0), Pt(5, 7), 0},
		{Pt(-3, -3), Pt(0, 0), Pt(3, 2), -1},
	}
	for _, tc := range tests {
		if got := Orientation(tc.a, tc.b, tc.c); got != tc.want {
			t.Errorf("Orientation(%v,%v,%v) = %d, want %d", tc.a, tc.b, tc.c, got, tc.want)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := R(10, 20, 2, 4) // corners in arbitrary order
	if r != (Rect{2, 4, 10, 20}) {
		t.Fatalf("R did not normalize: %v", r)
	}
	if r.Width() != 8 || r.Height() != 16 {
		t.Errorf("width/height = %d/%d, want 8/16", r.Width(), r.Height())
	}
	if r.MinDim() != 8 || r.MaxDim() != 16 {
		t.Errorf("minDim/maxDim = %d/%d", r.MinDim(), r.MaxDim())
	}
	if r.Area() != 128 {
		t.Errorf("area = %d, want 128", r.Area())
	}
	if got := r.Center(); got != Pt(6, 12) {
		t.Errorf("center = %v, want (6,12)", got)
	}
	if !r.Contains(Pt(2, 4)) || !r.Contains(Pt(10, 20)) || r.Contains(Pt(11, 4)) {
		t.Error("Contains misbehaves on boundary")
	}
	if got := r.Translate(Pt(-2, 1)); got != (Rect{0, 5, 8, 21}) {
		t.Errorf("translate = %v", got)
	}
}

func TestRectIntersection(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	c := R(20, 20, 30, 30)
	if !a.Intersects(b) || !a.Overlaps(b) {
		t.Error("a and b should overlap")
	}
	if a.Intersects(c) {
		t.Error("a and c should be disjoint")
	}
	if got := a.Intersect(b); got != (Rect{5, 5, 10, 10}) {
		t.Errorf("intersect = %v", got)
	}
	if got := a.Intersect(c); !got.Empty() {
		t.Errorf("disjoint intersect should be empty, got %v", got)
	}
	// Touching rectangles intersect (closed) but do not overlap (open).
	d := R(10, 0, 20, 10)
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
	if a.Overlaps(d) {
		t.Error("touching rects should not overlap")
	}
	if got := a.Union(c); got != (Rect{0, 0, 30, 30}) {
		t.Errorf("union = %v", got)
	}
	if got := (Rect{}).Union(c); got != c {
		t.Errorf("union with zero identity = %v", got)
	}
}

func TestGapsAndSeparation(t *testing.T) {
	a := R(0, 0, 10, 10)
	tests := []struct {
		b      Rect
		gx, gy int64
		sep    int64
	}{
		{R(20, 0, 30, 10), 10, 0, 10},
		{R(0, 15, 10, 25), 0, 5, 5},
		{R(13, 14, 20, 20), 3, 4, 4},
		{R(5, 5, 8, 8), 0, 0, 0},
		{R(10, 10, 20, 20), 0, 0, 0}, // corner touch
		{R(-7, -9, -2, -3), 2, 3, 3},
	}
	for _, tc := range tests {
		if got := GapX(a, tc.b); got != tc.gx {
			t.Errorf("GapX(a,%v) = %d, want %d", tc.b, got, tc.gx)
		}
		if got := GapY(a, tc.b); got != tc.gy {
			t.Errorf("GapY(a,%v) = %d, want %d", tc.b, got, tc.gy)
		}
		if got := Separation(a, tc.b); got != tc.sep {
			t.Errorf("Separation(a,%v) = %d, want %d", tc.b, got, tc.sep)
		}
		// Symmetry.
		if Separation(a, tc.b) != Separation(tc.b, a) {
			t.Errorf("Separation not symmetric for %v", tc.b)
		}
	}
}

func TestIntervals(t *testing.T) {
	iv := Interval{3, 9}
	if !iv.Valid() || iv.Len() != 6 {
		t.Fatal("interval basics")
	}
	if !iv.Contains(3) || !iv.Contains(9) || iv.Contains(10) {
		t.Error("Contains closed semantics")
	}
	if iv.ContainsOpen(3) || !iv.ContainsOpen(4) {
		t.Error("ContainsOpen semantics")
	}
	if !iv.Intersects(Interval{9, 12}) || iv.Intersects(Interval{10, 12}) {
		t.Error("interval intersection")
	}
	if got := iv.Intersect(Interval{5, 20}); got != (Interval{5, 9}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := iv.Intersect(Interval{20, 30}); got.Valid() {
		t.Errorf("disjoint Intersect should be invalid, got %v", got)
	}
}

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		s, t Segment
		want bool
	}{
		// Proper X crossing.
		{Seg(Pt(0, 0), Pt(10, 10)), Seg(Pt(0, 10), Pt(10, 0)), true},
		// Disjoint parallel.
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(0, 5), Pt(10, 5)), false},
		// Shared endpoint.
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(10, 0), Pt(20, 5)), true},
		// T-touch.
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(5, -5), Pt(5, 0)), true},
		// Collinear overlapping.
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(5, 0), Pt(15, 0)), true},
		// Collinear disjoint.
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(5, 0), Pt(15, 0)), false},
		// Degenerate point on segment.
		{Seg(Pt(5, 0), Pt(5, 0)), Seg(Pt(0, 0), Pt(10, 0)), true},
		// Degenerate point off segment.
		{Seg(Pt(5, 1), Pt(5, 1)), Seg(Pt(0, 0), Pt(10, 0)), false},
		// Near miss.
		{Seg(Pt(0, 0), Pt(10, 10)), Seg(Pt(11, 10), Pt(20, 0)), false},
	}
	for i, tc := range tests {
		if got := SegmentsIntersect(tc.s, tc.t); got != tc.want {
			t.Errorf("case %d: SegmentsIntersect = %v, want %v", i, got, tc.want)
		}
		if got := SegmentsIntersect(tc.t, tc.s); got != tc.want {
			t.Errorf("case %d: not symmetric", i)
		}
	}
}

// segmentsIntersectBrute is an independent slow oracle using rational
// parameterization over a fine sample plus exact endpoint handling. Instead
// of floating point we check via the standard bounding-box + orientation
// identity written differently.
func segmentsIntersectOracle(s, t Segment) bool {
	// Sample-free exact oracle: the segments intersect iff they straddle
	// each other or an endpoint lies on the other segment. This restates the
	// textbook condition independently of the implementation's short-circuit
	// order.
	straddle := func(p, q Segment) bool {
		o1 := Orientation(p.A, p.B, q.A)
		o2 := Orientation(p.A, p.B, q.B)
		return (o1 > 0 && o2 < 0) || (o1 < 0 && o2 > 0)
	}
	if straddle(s, t) && straddle(t, s) {
		return true
	}
	for _, p := range []Point{t.A, t.B} {
		if Orientation(s.A, s.B, p) == 0 && onSegment(s, p) {
			return true
		}
	}
	for _, p := range []Point{s.A, s.B} {
		if Orientation(t.A, t.B, p) == 0 && onSegment(t, p) {
			return true
		}
	}
	return false
}

func TestSegmentsIntersectQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		p := func() Point { return Pt(int64(rng.Intn(21)-10), int64(rng.Intn(21)-10)) }
		s, u := Seg(p(), p()), Seg(p(), p())
		return SegmentsIntersect(s, u) == segmentsIntersectOracle(s, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestGridPairsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rects := make([]Rect, 120)
	for i := range rects {
		x, y := int64(rng.Intn(2000)-1000), int64(rng.Intn(2000)-1000)
		rects[i] = R(x, y, x+int64(rng.Intn(300)+1), y+int64(rng.Intn(300)+1))
	}
	got := map[[2]int32]bool{}
	kept, _ := Pairs(rects, 128, 1, func(i, j int32) bool { return rects[i].Intersects(rects[j]) })
	for _, p := range kept {
		got[p] = true
	}
	want := map[[2]int32]bool{}
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			if rects[i].Intersects(rects[j]) {
				want[[2]int32{int32(i), int32(j)}] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("grid found %d intersecting pairs, brute force %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing pair %v", k)
		}
	}
}

func TestGridQueryFindsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rects := make([]Rect, 200)
	g := NewGrid(100)
	for i := range rects {
		x, y := int64(rng.Intn(5000)), int64(rng.Intn(5000))
		rects[i] = R(x, y, x+int64(rng.Intn(200)+1), y+int64(rng.Intn(200)+1))
		g.Insert(int32(i), rects[i])
	}
	seen := make([]bool, len(rects))
	for trial := 0; trial < 50; trial++ {
		x, y := int64(rng.Intn(5000)), int64(rng.Intn(5000))
		q := R(x, y, x+400, y+400)
		found := map[int32]int{}
		g.Query(q, seen, func(id int32) { found[id]++ })
		for id, n := range found {
			if n != 1 {
				t.Fatalf("id %d reported %d times", id, n)
			}
		}
		for i, r := range rects {
			if r.Intersects(q) && found[int32(i)] == 0 {
				t.Fatalf("query %v missed rect %d %v", q, i, r)
			}
		}
	}
}

func TestFloorDiv(t *testing.T) {
	tests := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {-4, 2, -2}, {0, 5, 0}, {-1, 5, -1},
	}
	for _, tc := range tests {
		if got := floorDiv(tc.a, tc.b); got != tc.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAbs(t *testing.T) {
	if Abs(-9) != 9 || Abs(4) != 4 {
		t.Error("Abs helper")
	}
}
