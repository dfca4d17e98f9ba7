package planar

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
)

// ErrNotPlanarDrawing is returned by BuildEmbedding when the drawing still
// contains crossings.
var ErrNotPlanarDrawing = errors.New("planar: drawing has crossings; planarize first")

// Embedding is the combinatorial embedding induced by a crossing-free
// drawing: faces traced from the geometric rotation system, with face
// lengths counted in logical edges (polyline bends are transparent).
type Embedding struct {
	d *Drawing

	// Subdivided structure: vertex ids 0..nV-1; the first d.G.N() are the
	// original nodes, the rest are bend vertices.
	nV  int
	pos []geom.Point
	// Half-edges come in twin pairs 2k (tail→head) and 2k+1 (head→tail) of
	// segment k; each segment belongs to a logical edge.
	segEdge []int // segment -> logical edge index
	segA    []int // segment -> tail vertex
	segB    []int // segment -> head vertex

	FaceOf   []int // half-edge -> face id
	FaceLen  []int // face -> length in logical edges
	NumFaces int
}

// BuildEmbedding traces the faces of a crossing-free drawing. It fails when
// the drawing still has crossing edges (which would make faces meaningless).
func BuildEmbedding(d *Drawing) (*Embedding, error) {
	if pairs := d.Crossings(1); len(pairs) > 0 {
		return nil, fmt.Errorf("%w (%d crossing pairs, first %v)", ErrNotPlanarDrawing, len(pairs), pairs[0])
	}
	return BuildEmbeddingUnchecked(d)
}

// BuildEmbeddingUnchecked is BuildEmbedding without the defensive geometric
// crossing re-scan. It is for callers that just planarized the drawing and
// still hold the proof (the detection flow pays the full sweep exactly once
// this way); tracing a drawing that does contain crossings yields a
// meaningless face structure.
func BuildEmbeddingUnchecked(d *Drawing) (*Embedding, error) {
	em := &Embedding{d: d}
	em.nV = d.G.N()
	// Pre-size: one segment per polyline leg, one extra vertex per bend.
	nSeg := d.G.M()
	for _, pts := range d.Bends {
		nSeg += len(pts)
	}
	em.pos = make([]geom.Point, em.nV, em.nV+nSeg-d.G.M())
	copy(em.pos, d.Pos)
	em.segEdge = make([]int, 0, nSeg)
	em.segA = make([]int, 0, nSeg)
	em.segB = make([]int, 0, nSeg)

	// Subdivide polylines: one vertex per bend, one segment per polyline leg.
	for e := 0; e < d.G.M(); e++ {
		pts := d.Polyline(e)
		prev := d.G.Edge(e).U
		for i := 1; i < len(pts); i++ {
			var head int
			if i == len(pts)-1 {
				head = d.G.Edge(e).V
			} else {
				head = em.nV
				em.nV++
				em.pos = append(em.pos, pts[i])
			}
			em.segEdge = append(em.segEdge, e)
			em.segA = append(em.segA, prev)
			em.segB = append(em.segB, head)
			prev = head
		}
	}

	// Rotation system: half-edges grouped by tail vertex, sorted by exact
	// angle around the vertex.
	nH := 2 * len(em.segEdge)
	outDeg := make([]int, em.nV)
	for s := range em.segEdge {
		outDeg[em.segA[s]]++
		outDeg[em.segB[s]]++
	}
	outBack := make([]int, 0, nH)
	out := make([][]int, em.nV) // per-vertex outgoing half-edges
	for v := range out {
		off := len(outBack)
		outBack = outBack[:off+outDeg[v]]
		out[v] = outBack[off : off : off+outDeg[v]]
	}
	for s := range em.segEdge {
		out[em.segA[s]] = append(out[em.segA[s]], 2*s)
		out[em.segB[s]] = append(out[em.segB[s]], 2*s+1)
	}
	dir := func(h int) geom.Point {
		s := h / 2
		if h%2 == 0 {
			return em.pos[em.segB[s]].Sub(em.pos[em.segA[s]])
		}
		return em.pos[em.segA[s]].Sub(em.pos[em.segB[s]])
	}
	for v := range out {
		hs := out[v]
		sort.Slice(hs, func(i, j int) bool {
			return angleLess(dir(hs[i]), dir(hs[j]), hs[i], hs[j])
		})
	}
	// rotPrev[h]: the half-edge preceding h in CCW order around its tail.
	rotPrev := make([]int, nH)
	for _, hs := range out {
		for i, h := range hs {
			rotPrev[h] = hs[(i-1+len(hs))%len(hs)]
		}
	}
	twin := func(h int) int { return h ^ 1 }

	// Face tracing: next-on-face(h) = CCW-predecessor of twin(h) at head(h).
	em.FaceOf = make([]int, nH)
	for i := range em.FaceOf {
		em.FaceOf[i] = -1
	}
	for h0 := 0; h0 < nH; h0++ {
		if em.FaceOf[h0] >= 0 {
			continue
		}
		f := em.NumFaces
		em.NumFaces++
		length := 0
		h := h0
		for {
			em.FaceOf[h] = f
			// Count one logical edge per traversal: a polyline's legs are
			// walked consecutively (bend vertices have degree 2), so count
			// only legs whose head is an original vertex.
			if em.head(h) < d.G.N() {
				length++
			}
			h = rotPrev[twin(h)]
			if h == h0 {
				break
			}
		}
		em.FaceLen = append(em.FaceLen, length)
	}
	return em, nil
}

func (em *Embedding) head(h int) int {
	s := h / 2
	if h%2 == 0 {
		return em.segB[s]
	}
	return em.segA[s]
}

// OddFaces returns the ids of faces whose logical length is odd.
func (em *Embedding) OddFaces() []int {
	var t []int
	for f, l := range em.FaceLen {
		if l%2 == 1 {
			t = append(t, f)
		}
	}
	return t
}

// Dual builds the geometric dual: one node per face, one edge per logical
// primal edge (weight copied), returning the dual graph, the mapping
// dualEdge -> primal edge index, and the terminal set T of odd faces.
// Bridges become self-loops in the dual and are kept (T-join solvers skip
// them; they can never repair face parity).
func (em *Embedding) Dual() (dg *graph.Graph, primalOf []int, T []int) {
	// One dual edge per logical edge: use its first segment's twin pair.
	firstSeg := make([]int, em.d.G.M())
	for i := range firstSeg {
		firstSeg[i] = -1
	}
	m := 0
	for s, e := range em.segEdge {
		if firstSeg[e] == -1 {
			firstSeg[e] = s
			m++
		}
	}
	dg = graph.New(em.NumFaces)
	dg.Grow(m)
	primalOf = make([]int, 0, m)
	for e := 0; e < em.d.G.M(); e++ {
		s := firstSeg[e]
		if s == -1 {
			continue // defensive: edge without geometry
		}
		f1, f2 := em.FaceOf[2*s], em.FaceOf[2*s+1]
		dg.AddEdge(f1, f2, em.d.G.Edge(e).Weight)
		primalOf = append(primalOf, e)
	}
	return dg, primalOf, em.OddFaces()
}

// angleLess orders direction vectors counter-clockwise starting from the
// positive x axis, exactly (no floating point). Ties (identical directions,
// possible only for degenerate drawings) break on half-edge id for
// determinism.
func angleLess(a, b geom.Point, ha, hb int) bool {
	la, lb := lowerHalf(a), lowerHalf(b)
	if la != lb {
		return !la // upper half (including +x axis) first
	}
	cr := a.Cross(b)
	if cr != 0 {
		return cr > 0
	}
	return ha < hb
}

// lowerHalf reports whether the vector points into the lower half-plane or
// along the negative x axis.
func lowerHalf(v geom.Point) bool {
	return v.Y < 0 || (v.Y == 0 && v.X < 0)
}
