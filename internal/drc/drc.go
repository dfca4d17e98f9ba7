// Package drc implements the design-rule checks the AAPSM flow relies on:
// minimum feature width and minimum same-layer spacing. The layout
// modification step uses it to prove that inserting end-to-end spaces never
// introduces violations (paper §3.2).
package drc

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/layout"
)

// Kind of rule violated.
type Kind int8

const (
	// MinWidth: a feature narrower than the minimum drawn width.
	MinWidth Kind = iota
	// MinSpacing: two disjoint features closer than the minimum spacing.
	MinSpacing
)

func (k Kind) String() string {
	if k == MinSpacing {
		return "min-spacing"
	}
	return "min-width"
}

// Violation is one DRC error.
type Violation struct {
	Kind   Kind
	A, B   int // feature indices (B = -1 for width violations)
	Actual int64
	Limit  int64
	Where  geom.Point
}

func (v Violation) String() string {
	if v.Kind == MinWidth {
		return fmt.Sprintf("%v: feature %d width %d < %d at %v", v.Kind, v.A, v.Actual, v.Limit, v.Where)
	}
	return fmt.Sprintf("%v: features %d,%d spaced %d < %d at %v", v.Kind, v.A, v.B, v.Actual, v.Limit, v.Where)
}

// WidthViolation checks feature i (rectangle f.Rect) against the minimum
// drawn width, returning the violation and whether one exists. It is the
// single width predicate shared by Check and the incremental DRC engine, so
// both produce identical records.
func WidthViolation(i int, f layout.Feature, r layout.Rules) (Violation, bool) {
	if f.Rect.Empty() || f.Rect.MinDim() < r.MinFeatureWidth {
		return Violation{
			Kind: MinWidth, A: i, B: -1,
			Actual: f.Rect.MinDim(), Limit: r.MinFeatureWidth,
			Where: f.Rect.Center(),
		}, true
	}
	return Violation{}, false
}

// SpacingViolation checks the same-layer spacing rule for features i and j
// with rectangles a and b. Touching or overlapping features count as merged
// (no violation). Like WidthViolation, it is shared with the incremental
// engine so spliced results match Check bit for bit.
func SpacingViolation(i, j int, a, b geom.Rect, r layout.Rules) (Violation, bool) {
	sep := geom.Separation(a, b)
	if sep > 0 && sep < r.MinFeatureSpacing {
		return Violation{
			Kind: MinSpacing, A: i, B: j,
			Actual: sep, Limit: r.MinFeatureSpacing,
			Where: geom.Seg(a.Center(), b.Center()).Midpoint(),
		}, true
	}
	return Violation{}, false
}

// ForEachSpacingViolation enumerates every spacing violation of the layout in
// ascending (i, j) pair order, calling fn for each, and returns the number of
// candidate pairs whose separation was actually checked (the work measure the
// incremental engine's reuse counters are compared against).
func ForEachSpacingViolation(l *layout.Layout, r layout.Rules, fn func(i, j int32, v Violation)) int {
	if len(l.Features) <= 1 {
		return 0
	}
	cell := r.MinFeatureSpacing * 4
	if cell < 64 {
		cell = 64
	}
	boxes := make([]geom.Rect, len(l.Features))
	for i, f := range l.Features {
		boxes[i] = f.Rect.Expand(r.MinFeatureSpacing)
	}
	kept, checked := geom.Pairs(boxes, cell, 1, func(i, j int32) bool {
		_, bad := SpacingViolation(int(i), int(j), l.Features[i].Rect, l.Features[j].Rect, r)
		return bad
	})
	for _, p := range kept {
		v, _ := SpacingViolation(int(p[0]), int(p[1]), l.Features[p[0]].Rect, l.Features[p[1]].Rect, r)
		fn(p[0], p[1], v)
	}
	return checked
}

// Check runs all rules on the layout: width violations in feature order,
// then spacing violations in ascending (A, B) pair order. Touching or
// overlapping features count as merged (no spacing violation between them).
func Check(l *layout.Layout, r layout.Rules) []Violation {
	var out []Violation
	for i, f := range l.Features {
		if v, bad := WidthViolation(i, f, r); bad {
			out = append(out, v)
		}
	}
	ForEachSpacingViolation(l, r, func(_, _ int32, v Violation) {
		out = append(out, v)
	})
	return out
}

// Clean reports whether the layout passes all checks.
func Clean(l *layout.Layout, r layout.Rules) bool { return len(Check(l, r)) == 0 }
