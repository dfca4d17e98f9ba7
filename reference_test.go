package aapsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/drc"
	"repro/internal/mask"
)

// The differential suites' oracle: the paper's chain run once, from scratch,
// straight through the core-level packages — core.BuildGraph →
// core.DetectContext → core.AssignPhases + Verify → correct.BuildPlan/Apply →
// mask.Validate/Build → drc.Check — with no Session, memo or incremental
// cache in the way. Every root-package differential suite checks its
// sessions against it.

// refPipeline is one from-scratch run of every stage on one layout. Each
// stage's error is set exactly where a Session reports one, with the same
// stage tag and message; a stage that depends on a failed one carries that
// failure, as a Session's would.
type refPipeline struct {
	layout *Layout
	res    *Result
	asg    *Assignment
	cor    *Correction
	mask   *Layout
	drc    []DRCViolation

	detErr, asgErr, corErr, maskErr error
}

// referencePipeline runs the reference chain on a flat copy of l under eng's
// configuration. The hierarchy sidecar is dropped, so hierarchical sessions
// are checked against flat solving.
func referencePipeline(ctx context.Context, eng *Engine, l *Layout) *refPipeline {
	l = l.Clone()
	l.Hier = nil
	rules := eng.Rules()
	ref := &refPipeline{layout: l, drc: drc.Check(l, rules)}
	fail := func(st FlowStage, err error) error { return flowErr(st, l.Name, err) }

	cg, err := core.BuildGraph(l, rules, eng.DetectOptions().Graph)
	if err == nil {
		opt := eng.DetectOptions().coreOptions()
		opt.Workers = eng.Parallelism()
		var det *Detection
		if det, err = core.DetectContext(ctx, cg, opt); err == nil {
			ref.res = &Result{Graph: cg, Detection: det}
		}
	}
	if err != nil {
		ref.detErr = fail(StageDetect, err)
		ref.asgErr, ref.corErr, ref.maskErr = ref.detErr, ref.detErr, ref.detErr
		return ref
	}
	det := ref.res.Detection

	if a, err := core.AssignPhases(det); err != nil {
		ref.asgErr = fail(StageAssign, fmt.Errorf("%w: %v", ErrNotAssignable, err))
	} else if v := a.Verify(cg); len(v) != 0 {
		ref.asgErr = fail(StageAssign, fmt.Errorf("assignment verification failed: %v", v[0]))
	} else {
		ref.asg = a
	}

	if plan, err := correct.BuildPlan(l, rules, cg.Set, det.FinalConflicts); err != nil {
		ref.corErr = fail(StageCorrect, err)
	} else {
		mod := correct.Apply(l, plan)
		ref.cor = &Correction{Plan: plan, Layout: mod, Stats: correct.Summarize(l, plan, mod)}
	}

	if a := ref.asg; a == nil {
		ref.maskErr = ref.asgErr
	} else if p := mask.Validate(l, cg.Set, a.Phases, a.Waived, rules); len(p) != 0 {
		ref.maskErr = fail(StageMask, fmt.Errorf("%w: %s", ErrMaskInconsistent, p[0]))
	} else if ref.mask, err = mask.Build(l, cg.Set, a.Phases, rules.Tone); err != nil {
		ref.maskErr = fail(StageMask, err)
	}
	return ref
}

// referenceOf runs the reference chain on the session's current layout.
func referenceOf(ctx context.Context, s *Session) *refPipeline {
	return referencePipeline(ctx, s.Engine(), s.SnapshotLayout())
}

// assertSameDetection compares a session's detection against another
// result: same crossing removals, bipartization set, T-join weight, final
// conflicts, shard and crossing-pair counts, and phase assignment.
func assertSameDetection(t *testing.T, step string, got, want *Result) {
	t.Helper()
	gd, wd := got.Detection, want.Detection
	if !slices.Equal(gd.CrossingsRemoved, wd.CrossingsRemoved) {
		t.Fatalf("%s: CrossingsRemoved diverged:\n got  %v\n want %v", step, gd.CrossingsRemoved, wd.CrossingsRemoved)
	}
	if !slices.Equal(gd.BipartizationEdges, wd.BipartizationEdges) {
		t.Fatalf("%s: BipartizationEdges diverged:\n got  %v\n want %v", step, gd.BipartizationEdges, wd.BipartizationEdges)
	}
	gw := got.Graph.Drawing.G.TotalWeight(gd.BipartizationEdges)
	ww := want.Graph.Drawing.G.TotalWeight(wd.BipartizationEdges)
	if gw != ww {
		t.Fatalf("%s: T-join weight %d != %d", step, gw, ww)
	}
	if len(gd.FinalConflicts) != len(wd.FinalConflicts) {
		t.Fatalf("%s: %d conflicts, want %d", step, len(gd.FinalConflicts), len(wd.FinalConflicts))
	}
	for i := range gd.FinalConflicts {
		g, w := gd.FinalConflicts[i], wd.FinalConflicts[i]
		if g.Edge != w.Edge || g.Meta != w.Meta || g.Deficit != w.Deficit {
			t.Fatalf("%s: conflict %d diverged: %+v != %+v", step, i, g, w)
		}
	}
	if got.Assignable() != want.Assignable() {
		t.Fatalf("%s: assignable %v != %v", step, got.Assignable(), want.Assignable())
	}
	if gd.Stats.CrossingPairs != wd.Stats.CrossingPairs {
		t.Fatalf("%s: crossing pairs %d != %d", step, gd.Stats.CrossingPairs, wd.Stats.CrossingPairs)
	}
	if gd.Stats.Shards != wd.Stats.Shards {
		t.Fatalf("%s: shards %d != %d", step, gd.Stats.Shards, wd.Stats.Shards)
	}
	ga, gerr := core.AssignPhases(gd)
	wa, werr := core.AssignPhases(wd)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: assignment errors diverged: %v vs %v", step, gerr, werr)
	}
	if gerr == nil && !slices.Equal(ga.Phases, wa.Phases) {
		t.Fatalf("%s: phase assignments diverged", step)
	}
}

// layoutText serializes a layout for byte-exact comparison.
func layoutText(t *testing.T, l *Layout) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteLayoutText(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// assertSamePipeline drives every stage of s — detection, assignment (with
// verification), correction, mask, DRC and the SVG render — and requires
// bit-identical results from the reference chain, or the same errors. No
// suite expects a detection error, so either side failing to detect is
// fatal. ErrMaskInconsistent errors must match in full text; it reports
// whether it compared one, so suites can check they reach that branch.
func assertSamePipeline(t *testing.T, step string, ctx context.Context, s *Session, ref *refPipeline) (maskErr bool) {
	t.Helper()
	gr, gerr := s.Detect(ctx)
	if gerr != nil || ref.detErr != nil {
		t.Fatalf("%s: Detect failed: session %v, reference %v", step, gerr, ref.detErr)
	}
	assertSameDetection(t, step, gr, ref.res)

	ga, gerr := s.Assignment(ctx)
	if (gerr == nil) != (ref.asgErr == nil) {
		t.Fatalf("%s: Assignment errors diverged: %v vs %v", step, gerr, ref.asgErr)
	}
	if wa := ref.asg; gerr == nil {
		if !slices.Equal(ga.Phases, wa.Phases) {
			t.Fatalf("%s: session phase assignments diverged", step)
		}
		if !maps.Equal(ga.Waived, wa.Waived) || !maps.Equal(ga.WaivedFeatures, wa.WaivedFeatures) {
			t.Fatalf("%s: waived sets diverged", step)
		}
	}

	gc, gerr := s.Correction(ctx)
	if (gerr == nil) != (ref.corErr == nil) {
		t.Fatalf("%s: Correction errors diverged: %v vs %v", step, gerr, ref.corErr)
	}
	if wc := ref.cor; gerr == nil {
		if !reflect.DeepEqual(gc.Plan.Cuts, wc.Plan.Cuts) {
			t.Fatalf("%s: correction cuts diverged:\n got  %+v\n want %+v", step, gc.Plan.Cuts, wc.Plan.Cuts)
		}
		if !slices.Equal(gc.Plan.Unfixable, wc.Plan.Unfixable) {
			t.Fatalf("%s: unfixable sets diverged: %v vs %v", step, gc.Plan.Unfixable, wc.Plan.Unfixable)
		}
		if gc.Plan.GridLines != wc.Plan.GridLines ||
			gc.Plan.AddedWidth != wc.Plan.AddedWidth || gc.Plan.AddedHeight != wc.Plan.AddedHeight {
			t.Fatalf("%s: plan summary diverged: %+v vs %+v", step, gc.Plan, wc.Plan)
		}
		if gc.Stats != wc.Stats {
			t.Fatalf("%s: correction stats diverged: %+v vs %+v", step, gc.Stats, wc.Stats)
		}
		if layoutText(t, gc.Layout) != layoutText(t, wc.Layout) {
			t.Fatalf("%s: corrected layouts diverged", step)
		}
	}

	gm, gerr := s.Mask(ctx)
	if (gerr == nil) != (ref.maskErr == nil) {
		t.Fatalf("%s: Mask errors diverged: %v vs %v", step, gerr, ref.maskErr)
	}
	switch {
	case errors.Is(gerr, ErrMaskInconsistent) || errors.Is(ref.maskErr, ErrMaskInconsistent):
		if gerr.Error() != ref.maskErr.Error() {
			t.Fatalf("%s: mask errors diverged:\n got  %v\n want %v", step, gerr, ref.maskErr)
		}
		maskErr = true
	case gerr == nil && layoutText(t, gm) != layoutText(t, ref.mask):
		t.Fatalf("%s: mask views diverged", step)
	}

	if gv := s.DRC(); !slices.Equal(gv, ref.drc) {
		t.Fatalf("%s: DRC diverged:\n got  %v\n want %v", step, gv, ref.drc)
	}

	var gs bytes.Buffer
	gerr = s.RenderSVG(ctx, &gs)
	if (gerr == nil) != (ref.asgErr == nil) {
		t.Fatalf("%s: SVG errors diverged: %v vs %v", step, gerr, ref.asgErr)
	}
	if gerr == nil {
		opt := RenderOptions{Result: ref.res, Assignment: ref.asg}
		if ref.cor != nil {
			opt.Plan = ref.cor.Plan
		}
		var ws bytes.Buffer
		if err := RenderSVG(&ws, ref.layout, opt); err != nil {
			t.Fatalf("%s: reference SVG: %v", step, err)
		}
		if !bytes.Equal(gs.Bytes(), ws.Bytes()) {
			t.Fatalf("%s: SVG renders diverged (%d vs %d bytes)", step, gs.Len(), ws.Len())
		}
	}
	return maskErr
}
