// Package planar implements the geometric planarization step of the AAPSM
// flow (paper flow step 1b) and the embedded-planar machinery needed by the
// optimal bipartization step (flow step 2): exact crossing detection between
// drawn edges, greedy minimum-weight crossing removal, rotation-system face
// tracing, and geometric-dual construction with the odd-face terminal set T.
//
// A Drawing is a graph whose nodes carry plane positions and whose edges are
// drawn as polylines (straight by default). The phase conflict graph draws
// every edge straight; the feature-graph baseline routes some edges through
// detour bend points, which is exactly why it planarizes worse (paper §3.1.1).
package planar

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Drawing couples a graph with a straight-line/polyline plane drawing.
type Drawing struct {
	G   *graph.Graph
	Pos []geom.Point // node positions, indexed by node id
	// Bends holds optional intermediate points per edge (same index space as
	// G.Edges()); nil entries mean the edge is drawn straight.
	Bends map[int][]geom.Point
}

// NewDrawing builds a Drawing over g with the given node positions.
func NewDrawing(g *graph.Graph, pos []geom.Point) *Drawing {
	if len(pos) != g.N() {
		panic(fmt.Sprintf("planar: %d positions for %d nodes", len(pos), g.N()))
	}
	return &Drawing{G: g, Pos: pos}
}

// SetBends routes edge e through the given intermediate points.
func (d *Drawing) SetBends(e int, pts ...geom.Point) {
	if d.Bends == nil {
		d.Bends = make(map[int][]geom.Point)
	}
	d.Bends[e] = pts
}

// Polyline returns the full point sequence of edge e, endpoints included.
func (d *Drawing) Polyline(e int) []geom.Point {
	ed := d.G.Edge(e)
	pts := make([]geom.Point, 0, 2+len(d.Bends[e]))
	pts = append(pts, d.Pos[ed.U])
	pts = append(pts, d.Bends[e]...)
	pts = append(pts, d.Pos[ed.V])
	return pts
}

// Segments returns the drawn segments of edge e.
func (d *Drawing) Segments(e int) []geom.Segment {
	pts := d.Polyline(e)
	segs := make([]geom.Segment, len(pts)-1)
	for i := range segs {
		segs[i] = geom.Seg(pts[i], pts[i+1])
	}
	return segs
}

// EdgesCross reports whether drawn edges e1 and e2 conflict: they touch at
// any point other than the position of a graph node they share. Collinear
// overlaps always conflict.
func (d *Drawing) EdgesCross(e1, e2 int) bool {
	return d.segmentsConflict(e1, e2, d.Segments(e1), d.Segments(e2))
}

func (d *Drawing) segmentsConflict(e1, e2 int, segs1, segs2 []geom.Segment) bool {
	a, b := d.G.Edge(e1), d.G.Edge(e2)
	var shared [2]geom.Point
	nShared := 0
	for _, u := range [2]int{a.U, a.V} {
		if u == b.U || u == b.V {
			shared[nShared] = d.Pos[u]
			nShared++
		}
	}
	for _, s := range segs1 {
		for _, t := range segs2 {
			if !geom.SegmentsIntersect(s, t) {
				continue
			}
			if geom.CollinearOverlap(s, t) {
				return true
			}
			// Single intersection point: allowed only when it is a shared
			// graph node's position (then that position lies on both
			// segments and is the unique contact).
			allowed := false
			for _, q := range shared[:nShared] {
				if geom.PointOnSegment(q, s) && geom.PointOnSegment(q, t) {
					allowed = true
					break
				}
			}
			if !allowed {
				return true
			}
		}
	}
	return false
}

// EdgeBounds returns the bounding rectangle of the drawn polyline of edge e
// without materializing the segment list.
func (d *Drawing) EdgeBounds(e int) geom.Rect {
	ed := d.G.Edge(e)
	u, v := d.Pos[ed.U], d.Pos[ed.V]
	bb := geom.R(u.X, u.Y, v.X, v.Y)
	for _, p := range d.Bends[e] {
		bb = bb.Union(geom.R(p.X, p.Y, p.X, p.Y))
	}
	return bb
}

// sweepSegments returns the drawn segments and the bounding box of each
// listed edge, plus the summed width+height of all their segment bounds and
// the segment count, which size the crossing sweep's grid cell. A straight
// edge's one segment is a window into a shared array, so an edge without
// bends allocates nothing of its own.
func (d *Drawing) sweepSegments(edges []int) (segs [][]geom.Segment, boxes []geom.Rect, extent int64, nseg int) {
	segs = make([][]geom.Segment, len(edges))
	boxes = make([]geom.Rect, len(edges))
	straight := make([]geom.Segment, len(edges))
	for i, e := range edges {
		if len(d.Bends[e]) == 0 {
			ed := d.G.Edge(e)
			straight[i] = geom.Seg(d.Pos[ed.U], d.Pos[ed.V])
			segs[i] = straight[i : i+1 : i+1]
		} else {
			segs[i] = d.Segments(e)
		}
		bb := geom.Rect{}
		for _, s := range segs[i] {
			b := s.Bounds()
			extent += b.Width() + b.Height()
			bb = bb.Union(b)
		}
		boxes[i] = bb
		nseg += len(segs[i])
	}
	return segs, boxes, extent, nseg
}

// crossingCell is the crossing sweep's grid cell for the given summed
// segment extent over n items: half the mean extent, at least 16 nm.
func crossingCell(extent int64, n int) int64 {
	return max(extent/int64(2*n)+1, 16)
}

// CrossingsAmong is Crossings restricted to the given edge subset: it
// returns, sorted ascending, every conflicting unordered pair drawn from
// edges whose members include at least one marked edge (marked is indexed by
// global edge id). Edges outside the subset are never tested, so callers
// that know the geometric neighborhood of a change — the incremental
// detection engine passes the edges whose bounds intersect the dirty region
// — pay only for that neighborhood instead of a full sweep. The exact
// conflict predicate is the one Crossings uses.
func (d *Drawing) CrossingsAmong(edges []int, marked []bool) [][2]int {
	if len(edges) == 0 {
		return nil
	}
	segs, boxes, extent, nseg := d.sweepSegments(edges)
	kept, _ := geom.Pairs(boxes, crossingCell(extent, nseg), 1, func(i, j int32) bool {
		e1, e2 := edges[i], edges[j]
		if !marked[e1] && !marked[e2] {
			return false
		}
		if e1 > e2 {
			return d.segmentsConflict(e2, e1, segs[j], segs[i])
		}
		return d.segmentsConflict(e1, e2, segs[i], segs[j])
	})
	if len(kept) == 0 {
		return nil
	}
	out := make([][2]int, len(kept))
	for k, p := range kept {
		out[k] = [2]int{min(edges[p[0]], edges[p[1]]), max(edges[p[0]], edges[p[1]])}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// Crossings returns all unordered pairs of edges that conflict in the
// drawing, in ascending order, using a uniform-grid pair sweep over edge
// bounding boxes, on up to workers goroutines, to prune candidates.
func (d *Drawing) Crossings(workers int) [][2]int {
	m := d.G.M()
	if m == 0 {
		return nil
	}
	all := make([]int, m)
	for e := range all {
		all[e] = e
	}
	segs, boxes, extent, _ := d.sweepSegments(all)
	kept, _ := geom.Pairs(boxes, crossingCell(extent, m), workers, func(i, j int32) bool {
		return d.segmentsConflict(int(i), int(j), segs[i], segs[j])
	})
	if len(kept) == 0 {
		return nil
	}
	out := make([][2]int, len(kept))
	for k, p := range kept {
		out[k] = [2]int{int(p[0]), int(p[1])}
	}
	return out
}

// PlanarizeGiven greedily removes crossing edges until the drawing is
// crossing-free, returning the removed edge indices in removal order. At
// each step the crossing edge with minimum weight is removed (ties: more
// remaining crossings first, then lower index), per the paper's "greedily
// removing minimum weight edges that cross other edges". pairs is the
// drawing's crossing-pair list (as returned by Crossings, or one cluster's
// share of a global sweep); the greedy selection is purely combinatorial,
// so the result only depends on pairs and the edge weights.
func (d *Drawing) PlanarizeGiven(pairs [][2]int) []int {
	if len(pairs) == 0 {
		return nil
	}
	// partners[e] = set of edges e currently crosses.
	partners := make(map[int]map[int]bool)
	add := func(a, b int) {
		if partners[a] == nil {
			partners[a] = make(map[int]bool)
		}
		partners[a][b] = true
	}
	for _, p := range pairs {
		add(p[0], p[1])
		add(p[1], p[0])
	}
	var removed []int
	for {
		best := -1
		for e, ps := range partners {
			if len(ps) == 0 {
				continue
			}
			if best == -1 {
				best = e
				continue
			}
			we, wb := d.G.Edge(e).Weight, d.G.Edge(best).Weight
			switch {
			case we < wb:
				best = e
			case we == wb && len(ps) > len(partners[best]):
				best = e
			case we == wb && len(ps) == len(partners[best]) && e < best:
				best = e
			}
		}
		if best == -1 {
			break
		}
		removed = append(removed, best)
		for p := range partners[best] {
			delete(partners[p], best)
		}
		delete(partners, best)
	}
	return removed
}

// WithoutEdgeSet returns a new Drawing without the edges marked in skip (a
// boolean slice indexed by edge), plus the mapping from new edge index to
// old edge index.
func (d *Drawing) WithoutEdgeSet(skip []bool) (*Drawing, []int) {
	sub, oldIdx := d.G.SubgraphWithoutEdgeSet(skip)
	nd := NewDrawing(sub, d.Pos)
	for newI, oldI := range oldIdx {
		if pts := d.Bends[oldI]; len(pts) > 0 {
			nd.SetBends(newI, pts...)
		}
	}
	return nd, oldIdx
}

// Induce builds the standalone drawing of one part of a partition of d.G
// (see graph.Partition), with positions and bend polylines carried over and
// node and edge order preserved. It only reads d, so parts of one drawing
// may be induced concurrently.
func (d *Drawing) Induce(p graph.Part, localOf []int) *Drawing {
	pos := make([]geom.Point, len(p.Nodes))
	for i, v := range p.Nodes {
		pos[i] = d.Pos[v]
	}
	nd := NewDrawing(d.G.Induce(p, localOf), pos)
	for i, e := range p.Edges {
		if pts := d.Bends[e]; len(pts) > 0 {
			nd.SetBends(i, pts...)
		}
	}
	return nd
}
