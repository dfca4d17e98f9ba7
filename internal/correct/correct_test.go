package correct

import (
	"context"

	"testing"

	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/shifter"
)

func rules() layout.Rules { return layout.Default90nm() }

// detect builds the PCG and runs the optimal flow.
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

// endToEnd runs detect → plan → apply → re-detect and asserts the modified
// layout is phase-assignable and DRC clean.
func endToEnd(t *testing.T, l *layout.Layout) (*Plan, *layout.Layout) {
	t.Helper()
	cg, det := detect(t, l)
	plan, err := BuildPlan(l, rules(), cg.Set, det.FinalConflicts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Unfixable) != 0 {
		t.Fatalf("unexpected unfixable conflicts: %v", plan.Unfixable)
	}
	mod := Apply(l, plan)
	if !drc.Clean(mod, rules()) {
		t.Fatalf("modification introduced DRC errors: %v", drc.Check(mod, rules()))
	}
	ok, err := core.IsPhaseAssignable(mod, rules())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("modified layout must be phase-assignable")
	}
	return plan, mod
}

func TestNoConflictsNoCuts(t *testing.T) {
	l := layout.New("clean")
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(500, 0, 600, 1000))
	cg, det := detect(t, l)
	plan, err := BuildPlan(l, rules(), cg.Set, det.FinalConflicts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cuts) != 0 || plan.AddedWidth != 0 {
		t.Fatalf("plan = %+v", plan)
	}
	mod := Apply(l, plan)
	if mod.BBox() != l.BBox() {
		t.Error("no-op plan must not move anything")
	}
}

func TestDensePairCorrected(t *testing.T) {
	// Two vertical wires at pitch 350: odd cycle; a single vertical space
	// fixes it.
	l := layout.New("pair350")
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(350, 0, 450, 1000))
	plan, mod := endToEnd(t, l)
	if len(plan.Cuts) == 0 {
		t.Fatal("expected at least one cut")
	}
	for _, c := range plan.Cuts {
		if c.Dir != VerticalCut {
			t.Errorf("vertical wires need vertical spaces, got %v", c.Dir)
		}
		if c.Pos <= 100 || c.Pos > 350 {
			t.Errorf("cut at %d should fall between the wires", c.Pos)
		}
	}
	if mod.Area() <= l.Area() {
		t.Error("area must grow")
	}
}

func TestTripleWireSingleSpaceSharing(t *testing.T) {
	// Figure-5 style: several vertically stacked conflict pairs aligned in
	// x — one vertical space should correct multiple conflicts at once.
	l := layout.New("fig5")
	for row := int64(0); row < 4; row++ {
		y := row * 1800
		l.Add(geom.R(0, y, 100, y+1000))
		l.Add(geom.R(350, y, 450, y+1000))
	}
	plan, _ := endToEnd(t, l)
	if plan.MaxPerLine() < 2 {
		t.Errorf("a single line should correct several conflicts, max=%d", plan.MaxPerLine())
	}
	var vcuts int
	for _, c := range plan.Cuts {
		if c.Dir == VerticalCut {
			vcuts++
		}
	}
	if vcuts != len(plan.Cuts) {
		t.Error("all cuts should be vertical here")
	}
}

func TestHorizontalWiresGetHorizontalCuts(t *testing.T) {
	l := layout.New("hpair")
	l.Add(geom.R(0, 0, 1000, 100))
	l.Add(geom.R(0, 350, 1000, 450))
	plan, _ := endToEnd(t, l)
	for _, c := range plan.Cuts {
		if c.Dir != HorizontalCut {
			t.Errorf("horizontal wires need horizontal spaces, got %v", c.Dir)
		}
	}
}

func TestFeatureEdgeConflictUnfixable(t *testing.T) {
	l := layout.New("x")
	l.Add(geom.R(0, 0, 100, 1000))
	set, err := shifter.Generate(l, rules())
	if err != nil {
		t.Fatal(err)
	}
	fake := []core.Conflict{{
		Edge: 0,
		Meta: core.EdgeMeta{Kind: core.FeatureEdge, S1: 0, S2: 1, Feature: 0, Overlap: -1},
	}}
	plan, err := BuildPlan(l, rules(), set, fake)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Unfixable) != 1 || len(plan.Cuts) != 0 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestApplyStretchesSpanningFeatures(t *testing.T) {
	// A horizontal rail spans the cut: its length must stretch so
	// connectivity is preserved.
	l := layout.New("rail")
	l.Add(geom.R(0, 0, 100, 1000))     // vertical wire A
	l.Add(geom.R(350, 0, 450, 1000))   // vertical wire B (conflict with A)
	l.Add(geom.R(0, 1500, 2000, 1600)) // wide horizontal rail, not critical
	cg, det := detect(t, l)
	plan, err := BuildPlan(l, rules(), cg.Set, det.FinalConflicts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cuts) == 0 {
		t.Fatal("expected cuts")
	}
	mod := Apply(l, plan)
	rail := mod.Features[2].Rect
	if rail.Width() != 2000+plan.AddedWidth {
		t.Errorf("rail width %d, want %d", rail.Width(), 2000+plan.AddedWidth)
	}
	if rail.Height() != 100 {
		t.Errorf("rail height changed: %d", rail.Height())
	}
	// Vertical wires keep their widths.
	for i := 0; i < 2; i++ {
		if mod.Features[i].Rect.Width() != 100 {
			t.Errorf("wire %d width changed to %d", i, mod.Features[i].Rect.Width())
		}
	}
}

func TestValidCutAvoidsWidthStretch(t *testing.T) {
	l := layout.New("v")
	l.Add(geom.R(0, 0, 100, 1000)) // vertical feature
	valid := NewCutChecker(l)
	if valid(VerticalCut, 50) {
		t.Error("cut through a vertical feature's x-span must be invalid")
	}
	if !valid(VerticalCut, 0) {
		t.Error("cut at the left edge shifts the whole feature: valid")
	}
	if valid(VerticalCut, 100) {
		t.Error("cut at the right edge would stretch the width")
	}
	if !valid(VerticalCut, 101) {
		t.Error("cut past the feature: valid")
	}
	if !valid(HorizontalCut, 500) {
		t.Error("horizontal cut stretches a vertical feature's length: valid")
	}
}

func TestCutIntervalSignedGap(t *testing.T) {
	// Features at [0,100] and [350,450]; facing shifters [100,300] and
	// [150,350] overlap by 150, so the need is 300+150 = 450.
	iv, need, ok := cutInterval(0, 100, 350, 450, 100, 300, 150, 350, 300)
	if !ok {
		t.Fatal("should be correctable")
	}
	if iv.Lo != 101 || iv.Hi != 350 {
		t.Errorf("interval = %+v", iv)
	}
	if need != 450 {
		t.Errorf("need = %d, want 450", need)
	}
	// Swapped order.
	iv2, need2, ok2 := cutInterval(350, 450, 0, 100, 150, 350, 100, 300, 300)
	if !ok2 || iv2 != iv || need2 != need {
		t.Errorf("swapped = %+v %d %v", iv2, need2, ok2)
	}
	// Overlapping features: not correctable.
	if _, _, ok := cutInterval(0, 100, 50, 200, 0, 0, 0, 0, 300); ok {
		t.Error("overlapping features must not be correctable")
	}
	// Abutting features: not correctable (would tear connectivity).
	if _, _, ok := cutInterval(0, 100, 100, 200, 0, 0, 0, 0, 300); ok {
		t.Error("abutting features must not be correctable")
	}
}

func TestSummarize(t *testing.T) {
	l := layout.New("sum")
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(350, 0, 450, 1000))
	cg, det := detect(t, l)
	plan, _ := BuildPlan(l, rules(), cg.Set, det.FinalConflicts)
	mod := Apply(l, plan)
	st := Summarize(l, plan, mod)
	if st.AreaBefore != l.Area() || st.AreaAfter != mod.Area() {
		t.Error("areas wrong")
	}
	if st.AreaIncrease <= 0 {
		t.Errorf("area increase = %f", st.AreaIncrease)
	}
	if st.Conflicts != len(det.FinalConflicts) || st.Cuts != len(plan.Cuts) {
		t.Error("counts wrong")
	}
}

func TestBuildPlanRestrictedMatchesUnrestricted(t *testing.T) {
	l := layout.New("restr")
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(350, 0, 450, 1000))
	cg, det := detect(t, l)
	free, err := BuildPlanRestricted(l, rules(), cg.Set, det.FinalConflicts, CutRegions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildPlan(l, rules(), cg.Set, det.FinalConflicts)
	if err != nil {
		t.Fatal(err)
	}
	if len(free.Cuts) != len(base.Cuts) || free.AddedWidth != base.AddedWidth {
		t.Fatalf("unrestricted regions must match BuildPlan: %+v vs %+v", free, base)
	}
}

func TestBuildPlanRestrictedWindows(t *testing.T) {
	l := layout.New("win")
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(350, 0, 450, 1000))
	cg, det := detect(t, l)
	// Window inside the valid interval (101..350): cuts allowed.
	ok, err := BuildPlanRestricted(l, rules(), cg.Set, det.FinalConflicts,
		CutRegions{VerticalX: []geom.Interval{{Lo: 200, Hi: 300}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ok.Cuts) == 0 || len(ok.Unfixable) != 0 {
		t.Fatalf("in-window plan: %+v", ok)
	}
	for _, c := range ok.Cuts {
		if c.Pos < 200 || c.Pos > 300 {
			t.Errorf("cut at %d escapes the window", c.Pos)
		}
	}
	// Window entirely outside: everything unfixable, no cuts.
	blocked, err := BuildPlanRestricted(l, rules(), cg.Set, det.FinalConflicts,
		CutRegions{VerticalX: []geom.Interval{{Lo: 5000, Hi: 6000}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocked.Cuts) != 0 || len(blocked.Unfixable) != len(det.FinalConflicts) {
		t.Fatalf("blocked plan: %+v", blocked)
	}
	// The restricted-but-feasible plan still repairs the layout.
	mod := Apply(l, ok)
	assignable, err := core.IsPhaseAssignable(mod, rules())
	if err != nil {
		t.Fatal(err)
	}
	if !assignable {
		t.Fatal("windowed correction must still fix the layout")
	}
}
