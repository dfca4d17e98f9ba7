// Package core implements the paper's primary contribution: AAPSM phase
// conflict detection on bright-field layouts.
//
// It builds the phase conflict graph (PCG, §3.1.1) — or the feature-graph
// baseline (FG) — from a layout's synthesized shifters, runs the detection
// flow (planarize → optimal bipartization via dual T-join → recheck removed
// crossings), and produces the minimal set of AAPSM conflicts that, once
// corrected, makes the layout phase-assignable. It also provides the greedy
// baseline (Table 1 column GB) and phase assignment with full verification
// of Conditions 1 and 2.
package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/planar"
	"repro/internal/shifter"
)

// GraphKind selects the layout-graph representation.
type GraphKind int8

const (
	// PCG is the paper's phase conflict graph: overlap nodes on the
	// center-line between shifters, straight drawing.
	PCG GraphKind = iota
	// FG is the feature-graph baseline: overlap ("conflict") nodes at the
	// geometric center of the overlap region and feature edges routed
	// through a feature-center bend — the detour drawing that planarizes
	// worse (paper §3.1.1, Figure 2).
	FG
)

func (k GraphKind) String() string {
	if k == FG {
		return "FG"
	}
	return "PCG"
}

// EdgeKind classifies conflict-graph edges.
type EdgeKind int8

const (
	// FeatureEdge joins the two flanks of one critical feature
	// (Condition 1: opposite phases).
	FeatureEdge EdgeKind = iota
	// OverlapEdge is one of the two edges of an overlap-node path
	// (Condition 2: same phase for the pair; deleting either edge cancels
	// the constraint).
	OverlapEdge
)

// EdgeMeta describes what a conflict-graph edge stands for in the layout.
type EdgeMeta struct {
	Kind EdgeKind
	// S1, S2 are the shifters the constraint relates (for an OverlapEdge,
	// the full pair of the overlap even though the edge touches only one of
	// them plus the overlap node).
	S1, S2 int
	// Feature is the critical feature index (FeatureEdge only, else -1).
	Feature int
	// Overlap is the index into Set.Overlaps (OverlapEdge only, else -1).
	Overlap int
}

// ConflictGraph is a drawn layout graph whose bipartiteness is equivalent to
// phase-assignability (Theorem 1). Shifter i of Set is graph node i; the
// overlap (aux) nodes follow, one per Set.Overlaps entry.
type ConflictGraph struct {
	Kind    GraphKind
	Drawing *planar.Drawing
	Set     *shifter.Set
	Rules   layout.Rules
	// Meta is indexed like Drawing.G.Edges().
	Meta []EdgeMeta
	// AuxNodes counts overlap/conflict nodes (nodes beyond the shifters).
	AuxNodes int
	// BendNodes counts drawing-only bend points (FG feature detours).
	BendNodes int
}

// Nodes returns the graph node count (drawing bends excluded).
func (cg *ConflictGraph) Nodes() int { return cg.Drawing.G.N() }

// Edges returns the graph edge count.
func (cg *ConflictGraph) Edges() int { return cg.Drawing.G.M() }

// BuildGraph constructs the selected representation from a layout. The
// shifter set is synthesized internally.
func BuildGraph(l *layout.Layout, r layout.Rules, kind GraphKind) (*ConflictGraph, error) {
	set, err := shifter.Generate(l, r)
	if err != nil {
		return nil, err
	}
	return BuildGraphFromSet(l, r, set, kind)
}

// BuildGraphFromSet constructs the graph from an existing shifter set.
func BuildGraphFromSet(l *layout.Layout, r layout.Rules, set *shifter.Set, kind GraphKind) (*ConflictGraph, error) {
	g := graph.New(0)
	cg := &ConflictGraph{Kind: kind, Set: set, Rules: r}
	nodes, edges := len(set.Shifters)+len(set.Overlaps), 2*len(set.Overlaps)+len(set.Shifters)/2
	reg := newPosRegistry(nodes)
	pos := make([]geom.Point, 0, nodes)
	if edges > 0 {
		g.Grow(edges)
		cg.Meta = make([]EdgeMeta, 0, edges)
	}

	for _, sh := range set.Shifters {
		g.AddNode()
		pos = append(pos, reg.claim(sh.Center()))
	}

	// Condition-2 constraints: overlap node + two edges per overlapping
	// pair.
	for oi, ov := range set.Overlaps {
		var q geom.Point
		if kind == PCG {
			// Paper §3.1.1: "place it at the center of the line connecting"
			// the two edge shifter nodes — collinear, crossing-minimal.
			q = geom.Seg(pos[ov.A], pos[ov.B]).Midpoint()
		} else {
			// FG detour: geometric center of the overlap region.
			q = overlapRegionCenter(set.Shifters[ov.A].Rect, set.Shifters[ov.B].Rect, r)
		}
		n := g.AddNode()
		pos = append(pos, reg.claim(q))
		cg.AuxNodes++
		w := ov.Deficit
		g.AddEdge(ov.A, n, w)
		cg.Meta = append(cg.Meta, EdgeMeta{Kind: OverlapEdge, S1: ov.A, S2: ov.B, Overlap: oi, Feature: -1})
		g.AddEdge(n, ov.B, w)
		cg.Meta = append(cg.Meta, EdgeMeta{Kind: OverlapEdge, S1: ov.A, S2: ov.B, Overlap: oi, Feature: -1})
	}

	d := planar.NewDrawing(g, pos)

	// Condition-1 constraints: one edge per critical feature between its
	// flanks, in feature order; FG routes it through the feature center.
	for k := 0; k+1 < len(set.Shifters); k += 2 {
		fi := set.Shifters[k].Feature
		e := g.AddEdge(k, k+1, r.FeatureConflictWeight)
		cg.Meta = append(cg.Meta, EdgeMeta{Kind: FeatureEdge, S1: k, S2: k + 1, Feature: fi, Overlap: -1})
		if kind == FG {
			d.SetBends(e, l.Features[fi].Rect.Center())
			cg.BendNodes++
		}
	}
	if len(cg.Meta) != g.M() {
		return nil, fmt.Errorf("core: meta/edge count mismatch %d != %d", len(cg.Meta), g.M())
	}
	cg.Drawing = d
	return cg, nil
}

// overlapRegionCenter returns the geometric center of the interaction region
// of two shifters: the intersection of both rectangles expanded by half the
// minimum shifter spacing (non-empty whenever the pair overlaps by
// Condition 2).
func overlapRegionCenter(a, b geom.Rect, r layout.Rules) geom.Point {
	h := r.MinShifterSpacing/2 + 1
	reg := a.Expand(h).Intersect(b.Expand(h))
	if reg.Empty() {
		// Defensive: fall back to the midpoint of centers.
		return geom.Seg(a.Center(), b.Center()).Midpoint()
	}
	return reg.Center()
}

// posRegistry hands out distinct node positions: a drawing with coincident
// nodes has degenerate geometry, so claimed duplicates are nudged by 1 nm
// steps in a small spiral until free. A position whose coordinates both fit
// an int32 is keyed by one packed uint64; any other by the point itself.
type posRegistry struct {
	used map[uint64]struct{}
	wide map[geom.Point]struct{}
}

// newPosRegistry sizes the registry for n claims, one per node of the graph
// being built, so claiming never grows the map.
func newPosRegistry(n int) *posRegistry {
	return &posRegistry{used: make(map[uint64]struct{}, n)}
}

var nudges = []geom.Point{
	{X: 1, Y: 0}, {X: 0, Y: 1}, {X: -1, Y: 0}, {X: 0, Y: -1},
	{X: 1, Y: 1}, {X: -1, Y: 1}, {X: 1, Y: -1}, {X: -1, Y: -1},
}

// take marks p used and reports whether it was free, with one map insert.
func (pr *posRegistry) take(p geom.Point) bool {
	if int64(int32(p.X)) == p.X && int64(int32(p.Y)) == p.Y {
		n := len(pr.used)
		pr.used[uint64(uint32(p.X))<<32|uint64(uint32(p.Y))] = struct{}{}
		return len(pr.used) > n
	}
	if pr.wide == nil {
		pr.wide = make(map[geom.Point]struct{})
	}
	n := len(pr.wide)
	pr.wide[p] = struct{}{}
	return len(pr.wide) > n
}

func (pr *posRegistry) claim(p geom.Point) geom.Point {
	if pr.take(p) {
		return p
	}
	for radius := int64(1); ; radius++ {
		for _, d := range nudges {
			q := geom.Pt(p.X+d.X*radius, p.Y+d.Y*radius)
			if pr.take(q) {
				return q
			}
		}
	}
}

// IsPhaseAssignable implements Theorem 1 directly: the layout admits a valid
// phase assignment iff its phase conflict graph is bipartite.
func IsPhaseAssignable(l *layout.Layout, r layout.Rules) (bool, error) {
	cg, err := BuildGraph(l, r, PCG)
	if err != nil {
		return false, err
	}
	return cg.Drawing.G.IsBipartite(), nil
}
