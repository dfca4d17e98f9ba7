package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// orientations are the eight rectilinear maps: four rotations, each with
// and without a reflection.
var orientations = []func(Point) Point{
	func(p Point) Point { return Pt(p.X, p.Y) },
	func(p Point) Point { return Pt(-p.Y, p.X) },
	func(p Point) Point { return Pt(-p.X, -p.Y) },
	func(p Point) Point { return Pt(p.Y, -p.X) },
	func(p Point) Point { return Pt(p.X, -p.Y) },
	func(p Point) Point { return Pt(p.Y, p.X) },
	func(p Point) Point { return Pt(-p.X, p.Y) },
	func(p Point) Point { return Pt(-p.Y, -p.X) },
}

// rings returns every drawing of the ring corners: each orientation, both
// windings, every start vertex, with and without the closing vertex.
func rings(corners []Point) [][]Point {
	var out [][]Point
	for _, o := range orientations {
		for _, reverse := range []bool{false, true} {
			base := make([]Point, len(corners))
			for i, p := range corners {
				base[i] = o(p)
			}
			if reverse {
				slices.Reverse(base)
			}
			for start := range base {
				ring := append(slices.Clone(base[start:]), base[:start]...)
				out = append(out, ring, append(slices.Clone(ring), ring[0]))
			}
		}
	}
	return out
}

func rectCorners(x0, y0, x1, y1 int64) []Point {
	return []Point{Pt(x0, y0), Pt(x1, y0), Pt(x1, y1), Pt(x0, y1)}
}

func TestAxisRectMatchesDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		x0, y0 := rng.Int63n(2000)-1000, rng.Int63n(2000)-1000
		w, h := rng.Int63n(500)+1, rng.Int63n(500)+1
		for _, ring := range rings(rectCorners(x0, y0, x0+w, y0+h)) {
			r, ok := AxisRect(ring)
			if !ok {
				t.Fatalf("rectangle ring %v declined", ring)
			}
			want, err := DecomposeRectilinear(ring)
			if err != nil || len(want) != 1 || want[0] != r {
				t.Fatalf("ring %v: fast path %v, decomposition %v (%v)", ring, r, want, err)
			}
		}
	}
}

func TestAxisRectDeclines(t *testing.T) {
	// Zero-area rings: declined, and the decomposition's error stands.
	for _, corners := range [][]Point{
		rectCorners(0, 0, 10, 0),
		rectCorners(0, 0, 0, 10),
		rectCorners(5, 5, 5, 5),
	} {
		for _, ring := range rings(corners) {
			if r, ok := AxisRect(ring); ok {
				t.Fatalf("zero-area ring %v accepted as %v", ring, r)
			}
			if rects, err := DecomposeRectilinear(ring); err == nil {
				t.Fatalf("zero-area ring %v decomposed into %v", ring, rects)
			}
		}
	}
	// Duplicate and collinear vertices: declined, though the decomposition
	// still finds the one rectangle.
	want := []Rect{{0, 0, 10, 20}}
	for _, corners := range [][]Point{
		{Pt(0, 0), Pt(10, 0), Pt(10, 0), Pt(10, 20), Pt(0, 20)},
		{Pt(0, 0), Pt(0, 0), Pt(10, 0), Pt(10, 20), Pt(0, 20)},
		{Pt(0, 0), Pt(5, 0), Pt(10, 0), Pt(10, 20), Pt(0, 20)},
		{Pt(0, 0), Pt(10, 0), Pt(10, 20), Pt(0, 20), Pt(0, 7)},
	} {
		for _, ring := range rings(corners) {
			if len(ring) == 5 && ring[0] == ring[4] {
				continue // the duplicate became the closing vertex
			}
			if r, ok := AxisRect(ring); ok {
				t.Fatalf("ring %v accepted as %v", ring, r)
			}
		}
		got, err := DecomposeRectilinear(corners)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("ring %v: decomposition %v (%v), want %v", corners, got, err, want)
		}
	}
	// Degenerate four-point rings and non-rectangles.
	for _, corners := range [][]Point{
		{Pt(0, 0), Pt(10, 0), Pt(10, 0), Pt(10, 10)},
		{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 0)},
		{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(1, 10)},
		{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10), Pt(0, 1)},
		{Pt(0, 0), Pt(10, 0), Pt(10, 10)},
		{Pt(0, 0)},
	} {
		for _, ring := range rings(corners) {
			if r, ok := AxisRect(ring); ok {
				t.Fatalf("ring %v accepted as %v", ring, r)
			}
		}
	}
	if r, ok := AxisRect(nil); ok {
		t.Fatalf("empty ring accepted as %v", r)
	}
}

// FuzzAxisRect checks the fast path against DecomposeRectilinear: a ring it
// accepts must decompose into exactly that rectangle. The input holds up to
// eight vertices, two bytes each, on a small grid so rectangles are common.
func FuzzAxisRect(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 3, 2, 0, 2})
	f.Add([]byte{1, 1, 1, 4, 250, 4, 250, 1, 1, 1})
	f.Add([]byte{0, 0, 3, 0, 3, 0, 3, 2, 0, 2})
	f.Add([]byte{0, 0, 3, 0, 3, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ring []Point
		for ; len(data) >= 2 && len(ring) < 8; data = data[2:] {
			ring = append(ring, Pt(int64(int8(data[0]))%8, int64(int8(data[1]))%8))
		}
		r, ok := AxisRect(ring)
		if !ok {
			return
		}
		got, err := DecomposeRectilinear(ring)
		if err != nil || len(got) != 1 || got[0] != r {
			t.Fatalf("ring %v: fast path %v, decomposition %v (%v)", ring, r, got, err)
		}
	})
}
