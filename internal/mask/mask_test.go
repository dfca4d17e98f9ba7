package mask

import (
	"context"

	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gds"
	"repro/internal/layout"
)

func buildAssigned(t *testing.T, l *layout.Layout) (*core.ConflictGraph, *core.Assignment) {
	t.Helper()
	r := layout.Default90nm()
	cg, err := core.BuildGraph(l, r, core.PCG)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.DetectContext(context.Background(), cg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.AssignPhases(det)
	if err != nil {
		t.Fatal(err)
	}
	return cg, a
}

func TestBuildMaskView(t *testing.T) {
	l := bench.Figure1Layout()
	cg, a := buildAssigned(t, l)
	m, err := Build(l, cg.Set, a.Phases, layout.BrightField)
	if err != nil {
		t.Fatal(err)
	}
	st := Count(m)
	if st.Chrome != len(l.Features) {
		t.Errorf("chrome = %d", st.Chrome)
	}
	if st.Phase0+st.Phase180 != len(cg.Set.Shifters) {
		t.Errorf("apertures = %d+%d, want %d", st.Phase0, st.Phase180, len(cg.Set.Shifters))
	}
	if st.Phase0 == 0 || st.Phase180 == 0 {
		t.Error("both phases must be populated")
	}
	// GDS round trip of the mask view.
	var buf bytes.Buffer
	if err := gds.Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := gds.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if Count(back) != st {
		t.Error("mask view altered by GDS round trip")
	}
}

func TestBuildPhaseCountMismatch(t *testing.T) {
	l := bench.Figure1Layout()
	cg, a := buildAssigned(t, l)
	if _, err := Build(l, cg.Set, a.Phases[:1], layout.BrightField); err == nil {
		t.Fatal("short phase slice must be rejected")
	}
	_ = cg
}

func TestValidateMask(t *testing.T) {
	l := bench.Figure1Layout()
	cg, a := buildAssigned(t, l)
	waived := map[int]bool{}
	for oi := range a.Waived {
		waived[oi] = true
	}
	if problems := Validate(l, cg.Set, a.Phases, waived, layout.Default90nm()); len(problems) != 0 {
		t.Fatalf("valid assignment flagged: %v", problems)
	}
	// Corrupt one phase: must be caught.
	bad := append([]core.Phase(nil), a.Phases...)
	bad[0] = 1 - bad[0]
	if problems := Validate(l, cg.Set, bad, waived, layout.Default90nm()); len(problems) == 0 {
		t.Fatal("corrupted phases not detected")
	}
}
