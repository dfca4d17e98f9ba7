package correct

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/shifter"
)

// Standard-cell aware correction (paper §5 future work: "extensions of the
// layout modification scheme to handle standard-cell blocks, that can
// restrict the insertion of cuts to certain regions and exploit the
// white-space inherent in the layout"): BuildPlanRestricted behaves like
// BuildPlan but only admits cut lines inside caller-approved windows —
// typically routing channels between cell rows or placement white space.

// CutRegions lists the coordinate windows where end-to-end spaces may be
// inserted. Nil slices mean "anywhere" for that direction.
type CutRegions struct {
	// VerticalX: allowed x windows for vertical cuts.
	VerticalX []geom.Interval
	// HorizontalY: allowed y windows for horizontal cuts.
	HorizontalY []geom.Interval
}

// windows returns the allowed windows for dir; nil means anywhere.
func (cr CutRegions) windows(dir Direction) []geom.Interval {
	if dir == VerticalCut {
		return cr.VerticalX
	}
	return cr.HorizontalY
}

// meets reports whether some allowed cut position for dir lies in iv.
func (cr CutRegions) meets(dir Direction, iv geom.Interval) bool {
	ws := cr.windows(dir)
	if ws == nil {
		return true
	}
	for _, w := range ws {
		if w.Intersect(iv).Valid() {
			return true
		}
	}
	return false
}

// clip restricts an interval to the allowed windows, appending the clipped
// candidate positions (window ∩ interval endpoints) to dst.
func (cr CutRegions) clip(dst []int64, dir Direction, iv geom.Interval) []int64 {
	ws := cr.windows(dir)
	if ws == nil {
		return append(dst, iv.Lo, iv.Hi)
	}
	for _, w := range ws {
		if c := w.Intersect(iv); c.Valid() {
			dst = append(dst, c.Lo, c.Hi)
		}
	}
	return dst
}

// BuildPlanRestricted is BuildPlan with cut positions limited to the given
// regions. Conflicts whose whole correction interval falls outside every
// window become Unfixable (to be handled by widening or mask splitting).
func BuildPlanRestricted(l *layout.Layout, r layout.Rules, set *shifter.Set, conflicts []core.Conflict, regions CutRegions) (*Plan, error) {
	return plan(l, r, set, conflicts, regions), nil
}
