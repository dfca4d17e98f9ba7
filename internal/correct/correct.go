// Package correct implements the paper's layout modification scheme
// (§3.2): AAPSM conflicts selected by the detection step are corrected by
// inserting end-to-end horizontal and/or vertical spaces across the whole
// layout. Cut lines and widths are chosen by a weighted set cover over the
// conflicts' correction intervals; applying the cuts stretches only feature
// lengths, never widths, so the modification cannot introduce DRC errors.
package correct

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/setcover"
	"repro/internal/shifter"
)

// Direction of an end-to-end space.
type Direction int8

const (
	// VerticalCut is a vertical line at X=Pos: everything with x >= Pos
	// shifts right by Width (adds horizontal space).
	VerticalCut Direction = iota
	// HorizontalCut is a horizontal line at Y=Pos: everything with y >= Pos
	// shifts up by Width.
	HorizontalCut
)

func (d Direction) String() string {
	if d == HorizontalCut {
		return "horizontal"
	}
	return "vertical"
}

// Cut is one chosen end-to-end space.
type Cut struct {
	Dir      Direction
	Pos      int64
	Width    int64
	Corrects []int // indices into the plan's Conflicts
}

// Plan is a complete layout modification: the cuts to insert and the
// conflicts they resolve.
type Plan struct {
	Conflicts []core.Conflict
	Cuts      []Cut
	// Unfixable conflicts cannot be corrected by spacing in either axis
	// (feature-edge conflicts and T-shape-like overlaps); the paper routes
	// these to mask splitting.
	Unfixable []int
	// AddedWidth/AddedHeight are the summed cut widths per axis.
	AddedWidth  int64
	AddedHeight int64
	// GridLines is the number of candidate lines considered (Table 2's
	// "Grid" column reports the chosen count; see Stats).
	GridLines int
}

// MaxPerLine returns the largest number of conflicts corrected by a single
// cut (Table 2's "Max" column).
func (p *Plan) MaxPerLine() int {
	best := 0
	for _, c := range p.Cuts {
		if len(c.Corrects) > best {
			best = len(c.Corrects)
		}
	}
	return best
}

// interval is a candidate correction range for one conflict along one axis.
type interval struct {
	conflict int
	dir      Direction
	lo, hi   int64 // valid cut positions (inclusive)
	need     int64 // required inserted width
}

// CutChecker reports whether an end-to-end cut at pos is legal: it must only
// stretch feature lengths, never widths.
type CutChecker func(dir Direction, pos int64) bool

// NewCutChecker builds a CutChecker over the layout's current features using
// per-direction span indexes (cutSpans): a vertical cut is invalid when it
// stabs the x-span of any vertical feature, and symmetrically. O(log n) per
// query after one O(n log n) build, which every plan pays afresh.
func NewCutChecker(l *layout.Layout) CutChecker {
	v, h := cutSpans(l.Features)
	return func(dir Direction, pos int64) bool {
		if dir == VerticalCut {
			return !v.Stab(pos)
		}
		return !h.Stab(pos)
	}
}

// cutSpans builds the cut-position indexes over features in one sort each:
// a vertical feature's x-span blocks vertical cuts (they would stretch its
// width), a horizontal feature's y-span blocks horizontal cuts.
func cutSpans(features []layout.Feature) (v, h geom.SpanSet) {
	var vlo, vhi, hlo, hhi []int64
	for _, f := range features {
		if f.Orient() == layout.Vertical {
			vlo, vhi = append(vlo, f.Rect.X0), append(vhi, f.Rect.X1)
		} else {
			hlo, hhi = append(hlo, f.Rect.Y0), append(hhi, f.Rect.Y1)
		}
	}
	return geom.NewSpanSet(vlo, vhi), geom.NewSpanSet(hlo, hhi)
}

// BuildPlan chooses cuts correcting the given conflicts on layout l.
// Conflicts must come from a detection on the same layout and rules.
func BuildPlan(l *layout.Layout, r layout.Rules, set *shifter.Set, conflicts []core.Conflict) (*Plan, error) {
	return plan(l, r, set, conflicts, CutRegions{}), nil
}

// plan is the one planner behind BuildPlan and BuildPlanRestricted:
// correction intervals per conflict (paper step 2), candidate grid lines at
// their endpoints (step 3) that are legal on l and inside regions, then a
// weighted set cover choosing the cuts.
func plan(l *layout.Layout, r layout.Rules, set *shifter.Set, conflicts []core.Conflict, regions CutRegions) *Plan {
	p := &Plan{Conflicts: conflicts}
	var ivs []interval
	for ci, c := range conflicts {
		n := len(ivs)
		if c.Meta.Kind == core.OverlapEdge {
			ivs = appendIntervals(ivs, l, r, set, ci, c, regions)
		}
		if len(ivs) == n {
			p.Unfixable = append(p.Unfixable, ci)
		}
	}
	if len(ivs) == 0 {
		return p
	}

	// Candidate grid lines: interval endpoints clipped to the allowed
	// regions, filtered so a cut never stretches a feature's width — a
	// vertical line must not pass through the x-span of any vertical
	// feature, and symmetrically.
	type lineKey struct {
		dir Direction
		pos int64
	}
	valid := NewCutChecker(l)
	cands := map[lineKey]bool{}
	var clipped []int64
	for _, iv := range ivs {
		clipped = regions.clip(clipped[:0], iv.dir, geom.Interval{Lo: iv.lo, Hi: iv.hi})
		for _, pos := range clipped {
			if valid(iv.dir, pos) {
				cands[lineKey{iv.dir, pos}] = true
			}
		}
	}
	lines := make([]lineKey, 0, len(cands))
	for k := range cands {
		lines = append(lines, k)
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].dir != lines[j].dir {
			return lines[i].dir < lines[j].dir
		}
		return lines[i].pos < lines[j].pos
	})
	p.GridLines = len(lines)

	// Weighted set cover: each line covers the conflicts whose interval
	// contains it; its weight is the largest width those conflicts need.
	sets := make([]setcover.Set, len(lines))
	for li, lk := range lines {
		for _, iv := range ivs {
			if iv.dir == lk.dir && iv.lo <= lk.pos && lk.pos <= iv.hi {
				sets[li].Members = append(sets[li].Members, iv.conflict)
				if iv.need > sets[li].Weight {
					sets[li].Weight = iv.need
				}
			}
		}
	}
	res := setcover.Solve(len(conflicts), sets)
	// Elements uncovered by any line but having intervals: should not
	// happen (their own endpoints are candidates unless filtered invalid);
	// report them unfixable.
	covered := map[int]bool{}
	for _, li := range res.Chosen {
		for _, m := range sets[li].Members {
			covered[m] = true
		}
	}
	hasInterval := map[int]bool{}
	for _, iv := range ivs {
		hasInterval[iv.conflict] = true
	}
	for ci := range conflicts {
		if hasInterval[ci] && !covered[ci] {
			p.Unfixable = append(p.Unfixable, ci)
		}
	}
	sort.Ints(p.Unfixable)

	for _, li := range res.Chosen {
		lk := lines[li]
		cut := Cut{Dir: lk.dir, Pos: lk.pos, Width: sets[li].Weight, Corrects: sets[li].Members}
		p.Cuts = append(p.Cuts, cut)
		if lk.dir == VerticalCut {
			p.AddedWidth += cut.Width
		} else {
			p.AddedHeight += cut.Width
		}
	}
	sort.Slice(p.Cuts, func(i, j int) bool {
		if p.Cuts[i].Dir != p.Cuts[j].Dir {
			return p.Cuts[i].Dir < p.Cuts[j].Dir
		}
		return p.Cuts[i].Pos < p.Cuts[j].Pos
	})
	return p
}

// appendIntervals appends overlap conflict ci's candidate cut ranges on both
// axes to ivs, dropping a range no allowed region meets.
func appendIntervals(ivs []interval, l *layout.Layout, r layout.Rules, set *shifter.Set, ci int, c core.Conflict, regions CutRegions) []interval {
	sa := set.Shifters[c.Meta.S1]
	sb := set.Shifters[c.Meta.S2]
	fa := l.Features[sa.Feature].Rect
	fb := l.Features[sb.Feature].Rect
	// A cut separates the conflicting shifters by moving one of their
	// *features* (shifters are regenerated from features after modification).
	// The cut must pass strictly between the two features' spans; the width
	// must close the signed shifter gap — overlapping shifter projections
	// need more than the nominal deficit.
	if iv, need, ok := cutInterval(fa.X0, fa.X1, fb.X0, fb.X1,
		sa.Rect.X0, sa.Rect.X1, sb.Rect.X0, sb.Rect.X1, r.MinShifterSpacing); ok && regions.meets(VerticalCut, iv) {
		ivs = append(ivs, interval{ci, VerticalCut, iv.Lo, iv.Hi, need})
	}
	if iv, need, ok := cutInterval(fa.Y0, fa.Y1, fb.Y0, fb.Y1,
		sa.Rect.Y0, sa.Rect.Y1, sb.Rect.Y0, sb.Rect.Y1, r.MinShifterSpacing); ok && regions.meets(HorizontalCut, iv) {
		ivs = append(ivs, interval{ci, HorizontalCut, iv.Lo, iv.Hi, need})
	}
	return ivs
}

// cutInterval computes the valid cut positions along one axis for a
// conflict between shifters (spans [sa0,sa1], [sb0,sb1]) of features (spans
// [fa0,fa1], [fb0,fb1]). The cut must fall strictly after the left feature
// and at or before the right feature: positions in (leftF.hi, rightF.lo].
// need is the inserted width that brings the trailing shifter's edge to the
// minimum spacing from the leading one (the signed gap may be negative when
// shifter projections overlap). ok is false when the features' spans overlap
// or abut — then no space can pass between them on this axis.
func cutInterval(fa0, fa1, fb0, fb1, sa0, sa1, sb0, sb1, minSpacing int64) (geom.Interval, int64, bool) {
	clamp := func(w int64) int64 {
		if w < 1 {
			return 1 // defensive: a real conflict always needs positive width
		}
		return w
	}
	switch {
	case fa1 < fb0: // feature A left/below, B moves
		return geom.Interval{Lo: fa1 + 1, Hi: fb0}, clamp(minSpacing - (sb0 - sa1)), true
	case fb1 < fa0: // feature B left/below, A moves
		return geom.Interval{Lo: fb1 + 1, Hi: fa0}, clamp(minSpacing - (sa0 - sb1)), true
	default:
		return geom.Interval{}, 0, false
	}
}

// Apply executes the plan on a copy of the layout: coordinates at or beyond
// a cut shift by its width; features spanning a cut stretch in length. The
// original layout is untouched.
func Apply(l *layout.Layout, p *Plan) *layout.Layout {
	var vcuts, hcuts []Cut
	for _, c := range p.Cuts {
		if c.Dir == VerticalCut {
			vcuts = append(vcuts, c)
		} else {
			hcuts = append(hcuts, c)
		}
	}
	xs, ys := newCutShift(vcuts), newCutShift(hcuts)
	out := layout.New(l.Name + "+spaces")
	if len(l.Features) > 0 {
		out.Features = make([]layout.Feature, 0, len(l.Features))
	}
	for _, f := range l.Features {
		nr := geom.Rect{
			X0: xs.shift(f.Rect.X0),
			Y0: ys.shift(f.Rect.Y0),
			X1: xs.shift(f.Rect.X1),
			Y1: ys.shift(f.Rect.Y1),
		}
		out.AddOnLayer(nr, f.Layer)
	}
	return out
}

// cutShift maps a coordinate across one axis's cuts: a coordinate c moves by
// the summed width of every cut with Pos <= c. pos holds the cut positions
// ascending and width[k] the summed width of the first k of them.
type cutShift struct {
	pos   []int64
	width []int64
}

func newCutShift(cuts []Cut) cutShift {
	sorted := slices.Clone(cuts)
	slices.SortFunc(sorted, func(a, b Cut) int { return cmp.Compare(a.Pos, b.Pos) })
	cs := cutShift{pos: make([]int64, len(sorted)), width: make([]int64, len(sorted)+1)}
	for k, c := range sorted {
		cs.pos[k] = c.Pos
		cs.width[k+1] = cs.width[k] + c.Width
	}
	return cs
}

func (cs cutShift) shift(c int64) int64 {
	n := sort.Search(len(cs.pos), func(k int) bool { return cs.pos[k] > c })
	return c + cs.width[n]
}

// Stats summarizes a correction for Table 2.
type Stats struct {
	Design       string
	AreaBefore   int64
	AreaAfter    int64
	Conflicts    int
	Cuts         int
	MaxPerLine   int
	Unfixable    int
	AreaIncrease float64 // percent
}

// Summarize computes the Table 2 row for a plan applied to l.
func Summarize(l *layout.Layout, p *Plan, modified *layout.Layout) Stats {
	st := Stats{
		Design:     l.Name,
		AreaBefore: l.Area(),
		AreaAfter:  modified.Area(),
		Conflicts:  len(p.Conflicts),
		Cuts:       len(p.Cuts),
		MaxPerLine: p.MaxPerLine(),
		Unfixable:  len(p.Unfixable),
	}
	if st.AreaBefore > 0 {
		st.AreaIncrease = 100 * float64(st.AreaAfter-st.AreaBefore) / float64(st.AreaBefore)
	}
	return st
}

// String renders the stats like a Table 2 row.
func (s Stats) String() string {
	return fmt.Sprintf("%-14s area=%dµm² conflicts=%d cuts=%d max=%d unfixable=%d area+%.2f%%",
		s.Design, s.AreaBefore/1e6, s.Conflicts, s.Cuts, s.MaxPerLine, s.Unfixable, s.AreaIncrease)
}
