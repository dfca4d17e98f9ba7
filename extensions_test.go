package aapsm

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// tJunctionLayout: a T junction whose shifter conflicts cannot be fixed by
// spacing, plus a plain dense pair that can.
func tJunctionLayout() *Layout {
	l := NewLayout("ext")
	l.Add(R(0, 0, 100, 2000))      // 0: vertical wire
	l.Add(R(100, 950, 1100, 1050)) // 1: horizontal wire, T against 0
	l.Add(R(4000, 0, 4100, 1000))  // 2: plain pair a
	l.Add(R(4350, 0, 4450, 1000))  // 3: plain pair b
	return l
}

func TestJunctionAnalysisPublic(t *testing.T) {
	l := tJunctionLayout()
	js := FindJunctions(l)
	if len(js) != 1 || js[0].Kind != JunctionTee {
		t.Fatalf("junctions = %v", js)
	}
	res, err := NewEngine().Detect(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	plain, junctioned := SplitConflictsByJunction(res, js)
	if len(junctioned) == 0 {
		t.Fatal("expected junction-adjacent conflicts")
	}
	if len(plain) == 0 {
		t.Fatal("expected plain conflicts from the dense pair")
	}
	if len(plain)+len(junctioned) != len(res.Conflicts()) {
		t.Error("partition must cover all conflicts")
	}
}

func TestWideningPublicFlow(t *testing.T) {
	ctx := context.Background()
	rules := Default90nmRules()
	eng := NewEngine(WithRules(rules))
	l := tJunctionLayout()
	s := eng.NewSession(l)
	res, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cor, err := s.Correction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cor.Plan.Unfixable) == 0 {
		t.Fatal("T junction conflicts should be unfixable by spacing")
	}
	wp, err := PlanWidening(l, rules, res, cor.Plan.Unfixable)
	if err != nil {
		t.Fatal(err)
	}
	if len(wp.Widened) == 0 {
		t.Fatalf("widening should engage: %+v", wp)
	}
	// Combined repair: spaces on the spacing-correctable conflicts, then
	// widening on the rest, must yield a fully assignable layout.
	stage1 := cor.Layout
	// Re-plan the widening against the spaced layout (feature indices are
	// preserved by Apply).
	s1 := eng.NewSession(stage1)
	res1, err := s1.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cor1, err := s1.Correction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wp1, err := PlanWidening(stage1, rules, res1, cor1.Plan.Unfixable)
	if err != nil {
		t.Fatal(err)
	}
	stage2 := ApplyWidening(stage1, wp1)
	if len(wp1.Remaining) == 0 {
		ok, err := Assignable(stage2, rules)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("spaced + widened layout must be phase-assignable")
		}
	}
	if vs := eng.NewSession(stage2).DRC(); len(vs) != 0 {
		t.Fatalf("widening broke DRC: %v", vs)
	}
}

func TestMaskPublicFlow(t *testing.T) {
	ctx := context.Background()
	rules := Default90nmRules()
	l := Figure1Layout()
	s := NewEngine(WithRules(rules)).NewSession(l)
	res, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Assignment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMask(l, res, a)
	if err != nil {
		t.Fatal(err)
	}
	layers := map[int]int{}
	for _, f := range m.Features {
		layers[f.Layer]++
	}
	if layers[MaskLayerChrome] != len(l.Features) {
		t.Errorf("chrome count = %d", layers[MaskLayerChrome])
	}
	if layers[MaskLayerShifter0] == 0 || layers[MaskLayerShifter180] == 0 {
		t.Error("both aperture layers must be present")
	}
	if problems := ValidateMask(l, rules, res, a); len(problems) != 0 {
		t.Fatalf("mask validation: %v", problems)
	}
	var buf bytes.Buffer
	if err := WriteGDS(&buf, m); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty GDS")
	}
}

func TestRenderSVGPublic(t *testing.T) {
	ctx := context.Background()
	l := Figure5Layout()
	s := NewEngine().NewSession(l)
	res, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Assignment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cor, err := s.Correction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = RenderSVG(&buf, l, RenderOptions{Result: res, Assignment: a, Plan: cor.Plan})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "<rect", "<line", "<circle"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in SVG", want)
		}
	}
}

func TestCorrectRestrictedPublic(t *testing.T) {
	rules := Default90nmRules()
	l := NewLayout("cr")
	l.Add(R(0, 0, 100, 1000))
	l.Add(R(350, 0, 450, 1000))
	res, err := NewEngine(WithRules(rules)).Detect(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	cor, err := CorrectRestricted(l, rules, res, CutRegions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cor.Plan.Cuts) == 0 {
		t.Fatal("unrestricted regions should cut")
	}
	ok, err := Assignable(cor.Layout, rules)
	if err != nil || !ok {
		t.Fatalf("assignable=%v err=%v", ok, err)
	}
}
