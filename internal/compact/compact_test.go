package compact

import (
	"context"

	"testing"

	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
)

func rules() layout.Rules { return layout.Default90nm() }

func detect(t *testing.T, l *layout.Layout) (*core.ConflictGraph, *core.Detection) {
	t.Helper()
	cg, err := core.BuildGraph(l, rules(), core.PCG)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.DetectContext(context.Background(), cg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cg, det
}

func TestExpandDensePair(t *testing.T) {
	l := layout.New("pair")
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(350, 0, 450, 1000))
	cg, det := detect(t, l)
	if len(det.FinalConflicts) == 0 {
		t.Fatal("expected conflicts")
	}
	reqs, unconvertible := RequirementsFromConflicts(l, rules(), cg.Set, det.FinalConflicts)
	if len(unconvertible) != 0 || len(reqs) == 0 {
		t.Fatalf("reqs=%v unconvertible=%v", reqs, unconvertible)
	}
	res, err := Expand(l, rules(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedX == 0 || res.AddedWidth <= 0 {
		t.Fatalf("expansion did nothing: %+v", res)
	}
	// Expanded layout: DRC clean and phase assignable.
	if !drc.Clean(res.Layout, rules()) {
		t.Fatalf("DRC broken: %v", drc.Check(res.Layout, rules()))
	}
	ok, err := core.IsPhaseAssignable(res.Layout, rules())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expanded layout must be phase-assignable")
	}
}

func TestExpandPreservesGapsAndWidths(t *testing.T) {
	l := layout.New("chain")
	// Three wires; conflict only between 0 and 1 (pitch 350); wire 2 is a
	// legal neighbor at pitch 500 from wire 1.
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(350, 0, 450, 1000))
	l.Add(geom.R(850, 0, 950, 1000))
	cg, det := detect(t, l)
	reqs, _ := RequirementsFromConflicts(l, rules(), cg.Set, det.FinalConflicts)
	res, err := Expand(l, rules(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Layout.Features {
		if f.Rect.Width() != l.Features[i].Rect.Width() ||
			f.Rect.Height() != l.Features[i].Rect.Height() {
			t.Errorf("feature %d resized", i)
		}
	}
	// Gap between 1 and 2 must not shrink.
	g01 := geom.GapX(res.Layout.Features[1].Rect, res.Layout.Features[2].Rect)
	if g01 < 400 {
		t.Errorf("gap 1-2 shrank to %d", g01)
	}
	ok, _ := core.IsPhaseAssignable(res.Layout, rules())
	if !ok {
		t.Fatal("not assignable after expansion")
	}
}

func TestExpandKeepsJunctionsTogether(t *testing.T) {
	l := layout.New("junc")
	// A T junction to the left of a dense pair: expanding the pair must not
	// tear the junction.
	l.Add(geom.R(0, 0, 100, 1000))     // 0 vertical
	l.Add(geom.R(100, 450, 500, 550))  // 1 horizontal, touches 0
	l.Add(geom.R(5000, 0, 5100, 1000)) // 2 dense pair a
	l.Add(geom.R(5350, 0, 5450, 1000)) // 3 dense pair b
	cg, det := detect(t, l)
	reqs, _ := RequirementsFromConflicts(l, rules(), cg.Set, det.FinalConflicts)
	// Keep only the pair requirement(s) between 2 and 3.
	var pairReqs []Requirement
	for _, q := range reqs {
		if (q.A == 2 && q.B == 3) || (q.A == 3 && q.B == 2) {
			pairReqs = append(pairReqs, q)
		}
	}
	if len(pairReqs) == 0 {
		t.Skip("no pair requirement; junction conflicts dominated")
	}
	res, err := Expand(l, rules(), pairReqs)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Layout.Features[0].Rect
	b := res.Layout.Features[1].Rect
	if a.X1 != b.X0 || b.Y0 != 450+dy(l, res, 1) {
		// The junction faces must still touch.
		if geom.Separation(a, b) != 0 {
			t.Fatalf("junction torn apart: %v vs %v", a, b)
		}
	}
}

func dy(before *layout.Layout, res *Result, i int) int64 {
	return res.Layout.Features[i].Rect.Y0 - before.Features[i].Rect.Y0
}

func TestRequirementsSkipFeatureEdges(t *testing.T) {
	l := layout.New("fe")
	l.Add(geom.R(0, 0, 100, 1000))
	cg, _ := detect(t, l)
	fake := []core.Conflict{{Meta: core.EdgeMeta{Kind: core.FeatureEdge, Feature: 0}}}
	reqs, unconvertible := RequirementsFromConflicts(l, rules(), cg.Set, fake)
	if len(reqs) != 0 || len(unconvertible) != 1 {
		t.Fatalf("reqs=%v unconvertible=%v", reqs, unconvertible)
	}
}

func TestExpandNoRequirementsNoop(t *testing.T) {
	l := layout.New("noop")
	l.Add(geom.R(0, 0, 100, 1000))
	res, err := Expand(l, rules(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AddedWidth != 0 || res.MovedX != 0 || res.MovedY != 0 {
		t.Fatalf("noop moved things: %+v", res)
	}
}

func TestExpandRejectsOverlappingRequirement(t *testing.T) {
	l := layout.New("bad")
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(50, 0, 150, 500)) // overlaps feature 0 in x
	_, err := Expand(l, rules(), []Requirement{{A: 0, B: 1, Axis: XAxis, MinGap: 300}})
	if err == nil {
		t.Fatal("overlapping-span requirement must be rejected")
	}
}
