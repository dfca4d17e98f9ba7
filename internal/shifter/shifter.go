// Package shifter synthesizes the phase shifters that flank every critical
// feature and detects "overlapping" shifter pairs — pairs closer than the
// minimum shifter spacing, which Condition 2 of the phase assignment problem
// forces onto the same phase.
package shifter

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/layout"
)

// Side identifies which flank of its feature a shifter occupies.
type Side int8

const (
	// LowSide is below a horizontal feature or left of a vertical one.
	LowSide Side = iota
	// HighSide is above a horizontal feature or right of a vertical one.
	HighSide
)

// Shifter is a synthesized phase-shift aperture.
type Shifter struct {
	Rect    geom.Rect
	Feature int // index of the flanked critical feature in the layout
	Side    Side
}

// Center returns the shifter's node position for graph drawings.
func (s Shifter) Center() geom.Point { return s.Rect.Center() }

// Overlap records a pair of shifters separated by less than the minimum
// shifter spacing (Condition 2). Deficit is the extra space needed to pull
// them apart to legality — the edge weight used by conflict detection.
type Overlap struct {
	A, B    int // shifter indices
	Deficit int64
}

// Set is the result of shifter synthesis on a layout.
type Set struct {
	// Shifters holds two flanks per critical feature, in ascending feature
	// order: Shifters[2k] is the LowSide and Shifters[2k+1] the HighSide
	// shifter of feature Shifters[2k].Feature. This slot is the one
	// (feature, side) -> index mapping: conflict-graph construction,
	// constraint checks and mask validation walk the pairs in order, and
	// shifter i is conflict-graph node i.
	Shifters []Shifter
	Overlaps []Overlap
}

// Generate synthesizes two flanking shifters for every critical feature of
// l and detects all overlapping pairs under rules r.
func Generate(l *layout.Layout, r layout.Rules) (*Set, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	s, _ := Synthesize(l, r)
	s.findOverlaps(r)
	return s, nil
}

// Synthesize returns the set of l's shifters without overlaps: two flanks
// per critical feature, in the slot order Set documents. base[f] is the slot
// of feature f's LowSide shifter (its HighSide shifter is base[f]+1), or -1
// for a non-critical feature.
func Synthesize(l *layout.Layout, r layout.Rules) (s *Set, base []int32) {
	s = &Set{}
	base = make([]int32, len(l.Features))
	critical := 0
	for _, f := range l.Features {
		if r.IsCritical(f) {
			critical++
		}
	}
	if critical > 0 {
		s.Shifters = make([]Shifter, 0, 2*critical)
	}
	for fi, f := range l.Features {
		base[fi] = -1
		if !r.IsCritical(f) {
			continue
		}
		lo, hi := Flanks(f, r)
		base[fi] = int32(len(s.Shifters))
		s.Shifters = append(s.Shifters,
			Shifter{Rect: lo, Feature: fi, Side: LowSide},
			Shifter{Rect: hi, Feature: fi, Side: HighSide},
		)
	}
	return s, base
}

// Flanks computes the two shifter rectangles for critical feature f: they
// run the full feature length on both sides of its narrow dimension,
// separated from the feature edge by the shifter gap.
func Flanks(f layout.Feature, r layout.Rules) (lo, hi geom.Rect) {
	rect := f.Rect
	if f.Orient() == layout.Horizontal {
		lo = geom.R(rect.X0, rect.Y0-r.ShifterGap-r.ShifterWidth, rect.X1, rect.Y0-r.ShifterGap)
		hi = geom.R(rect.X0, rect.Y1+r.ShifterGap, rect.X1, rect.Y1+r.ShifterGap+r.ShifterWidth)
		return lo, hi
	}
	lo = geom.R(rect.X0-r.ShifterGap-r.ShifterWidth, rect.Y0, rect.X0-r.ShifterGap, rect.Y1)
	hi = geom.R(rect.X1+r.ShifterGap, rect.Y0, rect.X1+r.ShifterGap+r.ShifterWidth, rect.Y1)
	return lo, hi
}

// OverlapDeficit evaluates the Condition-2 predicate on two shifter
// rectangles: it reports whether the pair is closer than the minimum
// shifter spacing, and if so the extra space needed to legalize it (the
// edge weight conflict detection uses). Every overlap enumeration —
// the full generator below, the incremental engine's neighborhood
// patching and its snapshot restore check — must go through this single
// definition.
func OverlapDeficit(a, b geom.Rect, r layout.Rules) (int64, bool) {
	sep := geom.Separation(a, b)
	if sep >= r.MinShifterSpacing {
		return 0, false
	}
	return r.MinShifterSpacing - sep, true
}

// findOverlaps fills s.Overlaps, in ascending (A, B) order, with every pair
// of shifters whose rectilinear separation is below the minimum shifter
// spacing, excluding the two flanks of the same feature (those are kept
// apart by the feature itself and are governed by Condition 1 instead). A
// uniform-grid pair sweep prunes candidate pairs.
func (s *Set) findOverlaps(r layout.Rules) {
	boxes := make([]geom.Rect, len(s.Shifters))
	for i, sh := range s.Shifters {
		boxes[i] = sh.Rect.Expand(r.MinShifterSpacing / 2)
	}
	kept, _ := geom.Pairs(boxes, r.MinShifterSpacing+r.ShifterWidth, 1, func(i, j int32) bool {
		a, b := s.Shifters[i], s.Shifters[j]
		if a.Feature == b.Feature {
			return false
		}
		_, ok := OverlapDeficit(a.Rect, b.Rect, r)
		return ok
	})
	if len(kept) == 0 {
		return
	}
	s.Overlaps = make([]Overlap, len(kept))
	for k, p := range kept {
		deficit, _ := OverlapDeficit(s.Shifters[p[0]].Rect, s.Shifters[p[1]].Rect, r)
		s.Overlaps[k] = Overlap{A: int(p[0]), B: int(p[1]), Deficit: deficit}
	}
}

// String implements fmt.Stringer for diagnostics.
func (s Shifter) String() string {
	side := "low"
	if s.Side == HighSide {
		side = "high"
	}
	return fmt.Sprintf("shifter{f%d %s %v}", s.Feature, side, s.Rect)
}
