package correct

import (
	"context"

	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/shifter"
)

// overlappedPairLayout builds a T-junction: a horizontal wire abutting a
// vertical wire's side. Their spans overlap in both axes (they touch), so
// no end-to-end space can pass between the features and spacing correction
// is impossible — the paper's T-shape class, forcing the widening path.
func overlappedPairLayout() *layout.Layout {
	l := layout.New("wident")
	l.Add(geom.R(0, 0, 100, 2000))      // vertical wire
	l.Add(geom.R(100, 950, 1100, 1050)) // horizontal wire, T against its side
	return l
}

func TestWideningResolvesSpacingUnfixable(t *testing.T) {
	r := layout.Default90nm()
	l := overlappedPairLayout()
	cg, err := core.BuildGraph(l, r, core.PCG)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.DetectContext(context.Background(), cg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(det.FinalConflicts) == 0 {
		t.Skip("fixture produced no conflicts; geometry drifted")
	}
	plan, err := BuildPlan(l, r, cg.Set, det.FinalConflicts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Unfixable) == 0 {
		t.Fatalf("fixture should be unfixable by spacing: %+v", plan)
	}
	wp, err := PlanWidening(l, r, cg.Set, det.FinalConflicts, plan.Unfixable)
	if err != nil {
		t.Fatal(err)
	}
	if len(wp.Widened) == 0 || len(wp.Resolved) == 0 {
		t.Fatalf("widening plan empty: %+v", wp)
	}
	if wp.AreaAdded <= 0 {
		t.Error("widening must add area")
	}
	mod := ApplyWidening(l, wp)
	if !drcCleanAfterWidening(l, r, wp) {
		t.Fatal("widening broke DRC")
	}
	// Widened features are no longer critical.
	for f := range wp.Widened {
		if r.IsCritical(mod.Features[f]) {
			t.Errorf("feature %d still critical after widening", f)
		}
	}
	// Re-detection: the dissolved conflicts must be gone.
	ok, err := core.IsPhaseAssignable(mod, r)
	if err != nil {
		t.Fatal(err)
	}
	if !ok && len(wp.Remaining) == 0 {
		t.Error("widened layout should be phase-assignable")
	}
}

func TestPlanWideningEmptyTarget(t *testing.T) {
	r := layout.Default90nm()
	l := overlappedPairLayout()
	set, err := shifter.Generate(l, r)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := PlanWidening(l, r, set, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wp.Widened) != 0 || wp.AreaAdded != 0 {
		t.Errorf("empty target plan: %+v", wp)
	}
}

func TestWidenedRectGeometry(t *testing.T) {
	r := layout.Default90nm() // critical width 150
	l := layout.New("wr")
	l.Add(geom.R(0, 0, 100, 1000)) // vertical, width 100 -> widen by 50
	wr, ok := widenedRect(l, r, 0)
	if !ok {
		t.Fatal("isolated wire must be widenable")
	}
	if wr.Width() != r.CriticalWidth {
		t.Errorf("widened width = %d", wr.Width())
	}
	if wr.Height() != 1000 {
		t.Error("length must not change")
	}
	// A non-critical feature cannot be "widened" usefully.
	l2 := layout.New("nc")
	l2.Add(geom.R(0, 0, 400, 1000))
	if _, ok := widenedRect(l2, r, 0); ok {
		t.Error("non-critical feature must not be widenable")
	}
	// Widening into a close neighbor is rejected.
	l3 := layout.New("tight")
	l3.Add(geom.R(0, 0, 100, 1000))
	l3.Add(geom.R(250, 0, 650, 1000)) // spacing 150; widening by 25 -> 125 < 140
	if _, ok := widenedRect(l3, r, 0); ok {
		t.Error("widening must respect neighbor spacing")
	}
	// Horizontal feature widens vertically.
	l4 := layout.New("h")
	l4.Add(geom.R(0, 0, 1000, 100))
	wr4, ok := widenedRect(l4, r, 0)
	if !ok || wr4.Height() != r.CriticalWidth || wr4.Width() != 1000 {
		t.Errorf("horizontal widening = %v ok=%v", wr4, ok)
	}
}
