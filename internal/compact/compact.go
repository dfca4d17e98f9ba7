// Package compact implements the related-work baseline for conflict
// correction: constraint-graph layout expansion in the style of the
// compactor-based phase-shift design flows of Ooi et al. (refs [2,3] of the
// paper). Instead of end-to-end spaces, each conflicting feature pair gets a
// minimum-gap constraint and a single-dimension longest-path solve moves
// individual features apart by the minimum amounts.
//
// The paper argues end-to-end spaces are safer ("only increasing the
// spacing between the shifters ... might cause DRC violations elsewhere and
// may need an additional re-compaction step"); this package exists to make
// that comparison measurable. The expansion keeps every existing
// neighbor-pair gap (it never shrinks a spacing), so it is DRC-safe by
// construction, but it perturbs per-feature alignment instead of preserving
// it the way uniform spaces do.
package compact

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/shifter"
)

// Axis of an expansion requirement.
type Axis int8

const (
	// XAxis separates features horizontally.
	XAxis Axis = iota
	// YAxis separates features vertically.
	YAxis
)

// Requirement asks for a minimum edge-to-edge gap between two features
// along one axis.
type Requirement struct {
	A, B   int // feature indices
	Axis   Axis
	MinGap int64
}

// Result of an expansion.
type Result struct {
	Layout      *layout.Layout
	AddedWidth  int64 // bounding-box growth in x
	AddedHeight int64 // bounding-box growth in y
	MovedX      int   // features displaced in x
	MovedY      int   // features displaced in y
	Unsatisfied []int // requirement indices that could not be applied
}

// RequirementsFromConflicts converts detected overlap conflicts into
// expansion requirements: each conflicting shifter pair needs its features
// pushed apart (along the axis where the features' spans are disjoint) far
// enough that the regenerated shifters clear the minimum shifter spacing.
func RequirementsFromConflicts(l *layout.Layout, r layout.Rules, set *shifter.Set, conflicts []core.Conflict) (reqs []Requirement, unconvertible []int) {
	for ci, c := range conflicts {
		if c.Meta.Kind != core.OverlapEdge {
			unconvertible = append(unconvertible, ci)
			continue
		}
		sa, sb := set.Shifters[c.Meta.S1], set.Shifters[c.Meta.S2]
		fa, fb := l.Features[sa.Feature].Rect, l.Features[sb.Feature].Rect
		switch {
		case fa.X1 < fb.X0 || fb.X1 < fa.X0:
			// Feature gap that makes the shifter gap equal MinShifterSpacing:
			// featureGap - shifterExtension, where the extension is the
			// shifter overhang on the facing sides. Derive it from current
			// geometry: neededExtra = MSS - signedShifterGapX.
			sg := signedGap(sa.Rect.X0, sa.Rect.X1, sb.Rect.X0, sb.Rect.X1)
			fg := signedGap(fa.X0, fa.X1, fb.X0, fb.X1)
			reqs = append(reqs, Requirement{
				A: sa.Feature, B: sb.Feature, Axis: XAxis,
				MinGap: fg + (r.MinShifterSpacing - sg),
			})
		case fa.Y1 < fb.Y0 || fb.Y1 < fa.Y0:
			sg := signedGap(sa.Rect.Y0, sa.Rect.Y1, sb.Rect.Y0, sb.Rect.Y1)
			fg := signedGap(fa.Y0, fa.Y1, fb.Y0, fb.Y1)
			reqs = append(reqs, Requirement{
				A: sa.Feature, B: sb.Feature, Axis: YAxis,
				MinGap: fg + (r.MinShifterSpacing - sg),
			})
		default:
			unconvertible = append(unconvertible, ci)
		}
	}
	return reqs, unconvertible
}

func signedGap(a0, a1, b0, b1 int64) int64 {
	if b0-a1 > a0-b1 {
		return b0 - a1
	}
	return a0 - b1
}

// Expand solves the expansion: all existing gaps between interacting
// neighbors are preserved and the requirements' gaps enforced, with the
// minimum total displacement (single-source longest path per axis).
func Expand(l *layout.Layout, r layout.Rules, reqs []Requirement) (*Result, error) {
	out := &Result{}
	nl := l.Clone()
	nl.Name = l.Name + "+compacted"

	var xr, yr []Requirement
	for _, q := range reqs {
		if q.A < 0 || q.A >= len(l.Features) || q.B < 0 || q.B >= len(l.Features) {
			return nil, fmt.Errorf("compact: requirement features out of range: %+v", q)
		}
		if q.Axis == XAxis {
			xr = append(xr, q)
		} else {
			yr = append(yr, q)
		}
	}
	before := l.BBox()
	if moved, err := expandAxis(nl, r, xr, XAxis); err != nil {
		return nil, err
	} else {
		out.MovedX = moved
	}
	if moved, err := expandAxis(nl, r, yr, YAxis); err != nil {
		return nil, err
	} else {
		out.MovedY = moved
	}
	after := nl.BBox()
	out.AddedWidth = after.Width() - before.Width()
	out.AddedHeight = after.Height() - before.Height()
	out.Layout = nl
	return out, nil
}

// expandAxis displaces features along one axis. The constraint graph links
// every pair of features whose perpendicular spans interact within the
// shifter reach; the weight preserves the current gap (or enforces the
// required one). A longest-path pass in original coordinate order yields
// minimal displacements.
func expandAxis(l *layout.Layout, rules layout.Rules, reqs []Requirement, axis Axis) (int, error) {
	n := len(l.Features)
	if n == 0 || len(reqs) == 0 {
		return 0, nil
	}
	reach := rules.MinShifterSpacing + 2*(rules.ShifterWidth+rules.ShifterGap) + rules.MinFeatureSpacing

	lo := func(i int) int64 {
		if axis == XAxis {
			return l.Features[i].Rect.X0
		}
		return l.Features[i].Rect.Y0
	}
	hi := func(i int) int64 {
		if axis == XAxis {
			return l.Features[i].Rect.X1
		}
		return l.Features[i].Rect.Y1
	}
	perp := func(i int) geom.Interval {
		if axis == XAxis {
			return l.Features[i].Rect.YInterval()
		}
		return l.Features[i].Rect.XInterval()
	}

	// Constraint edges: ordered pairs (left, right) with min distance
	// between their lo coordinates.
	type edge struct {
		from, to int
		dist     int64 // x'_to >= x'_from + dist (lo-to-lo distance)
	}
	var edges []edge
	// Neighbor preservation within interaction reach.
	boxes := make([]geom.Rect, n)
	for i := range boxes {
		boxes[i] = l.Features[i].Rect.Expand(reach)
	}
	near, _ := geom.Pairs(boxes, reach*2, 1, func(a, b int32) bool {
		pi, pj := perp(int(a)), perp(int(b))
		return pi.Intersects(geom.Interval{Lo: pj.Lo - reach, Hi: pj.Hi + reach})
	})
	for _, p := range near {
		i, j := int(p[0]), int(p[1])
		// Touching features (junctions, merged shapes) must move as one:
		// preserve their exact relative offset in both directions. Others
		// get an ordered minimum-distance edge preserving the current gap.
		if l.Features[i].Rect.Intersects(l.Features[j].Rect) {
			edges = append(edges, edge{i, j, lo(j) - lo(i)}, edge{j, i, lo(i) - lo(j)})
			continue
		}
		switch {
		case hi(i) <= lo(j):
			edges = append(edges, edge{i, j, lo(j) - lo(i)})
		case hi(j) <= lo(i):
			edges = append(edges, edge{j, i, lo(i) - lo(j)})
		default:
			// Axis spans overlap without touching (a strap over a row, or
			// stacked wires): no constraint. Their rectilinear separation
			// equals the unchanged perpendicular gap, so sliding along this
			// axis can never bring them closer; rigidifying them instead
			// would weld whole rows together and contradict separation
			// requirements.
		}
	}
	// Requirement edges.
	for _, q := range reqs {
		a, b := q.A, q.B
		if lo(a) > lo(b) {
			a, b = b, a
		}
		if hi(a) > lo(b) {
			return 0, fmt.Errorf("compact: requirement between axis-overlapping features %d,%d", q.A, q.B)
		}
		// Need gap lo(b)' - hi(a)' >= MinGap; widths are constant so
		// lo(b)' >= lo(a)' + width(a) + MinGap.
		edges = append(edges, edge{a, b, (hi(a) - lo(a)) + q.MinGap})
	}

	// Longest path with displacement variables: delta_to >= delta_from +
	// (dist - origDist). Zero/negative-slack edges are satisfied already.
	// Bellman-Ford style relaxation (graphs may have 0-weight cycles from
	// rigid pairs; positive cycles are impossible because requirement edges
	// follow the coordinate order).
	delta := make([]int64, n)
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range edges {
			slack := e.dist - (lo(e.to) - lo(e.from))
			if d := delta[e.from] + slack; d > delta[e.to] {
				delta[e.to] = d
				changed = true
			}
		}
		if !changed {
			break
		}
		if iter == n-1 && changed {
			return 0, fmt.Errorf("compact: constraint cycle with positive weight")
		}
	}
	// Normalize so nothing moves left/down.
	var minD int64
	for _, d := range delta {
		if d < minD {
			minD = d
		}
	}
	moved := 0
	for i := range l.Features {
		d := delta[i] - minD
		if d == 0 {
			continue
		}
		moved++
		if axis == XAxis {
			l.Features[i].Rect = l.Features[i].Rect.Translate(geom.Pt(d, 0))
		} else {
			l.Features[i].Rect = l.Features[i].Rect.Translate(geom.Pt(0, d))
		}
	}
	return moved, nil
}
