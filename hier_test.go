package aapsm

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/gds"
	"repro/internal/geom"
)

// crossPoly is a plus-shaped 12-vertex rectilinear polygon centered on
// (cx,cy) with critical-width arms, the conflict-rich polygonal primitive of
// the hierarchy tests.
func crossPoly(cx, cy int64) gds.Poly {
	const arm, reach = 100, 500
	return gds.Poly{Layer: 0, Pts: []geom.Point{
		{X: cx - arm/2, Y: cy - reach}, {X: cx + arm/2, Y: cy - reach},
		{X: cx + arm/2, Y: cy - arm/2}, {X: cx + reach, Y: cy - arm/2},
		{X: cx + reach, Y: cy + arm/2}, {X: cx + arm/2, Y: cy + arm/2},
		{X: cx + arm/2, Y: cy + reach}, {X: cx - arm/2, Y: cy + reach},
		{X: cx - arm/2, Y: cy + arm/2}, {X: cx - reach, Y: cy + arm/2},
		{X: cx - reach, Y: cy - arm/2}, {X: cx - arm/2, Y: cy - arm/2},
	}}
}

// hierTestLibrary builds a library whose CELL holds a 2x3 grid of crosses
// plus two plain gate rectangles, placed from TOP as a 2x2 AREF, one rotated
// SREF and one reflected SREF — six placements, three distinct transforms.
// Placement pitch keeps every placement outside shifter-interaction range of
// its neighbors, so each placement's clusters are its own.
func hierTestLibrary() *gds.Library {
	cell := &gds.Cell{Name: "CELL"}
	for j := int64(0); j < 2; j++ {
		for i := int64(0); i < 3; i++ {
			cell.Polys = append(cell.Polys, crossPoly(i*1800, j*1800))
		}
	}
	cell.Polys = append(cell.Polys,
		gds.Poly{Layer: 0, Pts: []geom.Point{{X: -400, Y: 2400}, {X: -300, Y: 2400}, {X: -300, Y: 3400}, {X: -400, Y: 3400}}},
		gds.Poly{Layer: 0, Pts: []geom.Point{{X: -180, Y: 2400}, {X: -80, Y: 2400}, {X: -80, Y: 3400}, {X: -180, Y: 3400}}},
	)
	return &gds.Library{Name: "hiertest", Cells: []*gds.Cell{
		{Name: "TOP", Refs: []gds.Ref{
			{Cell: "CELL", Origin: geom.Pt(0, 0), Cols: 2, Rows: 2,
				ColStep: geom.Pt(6000, 0), RowStep: geom.Pt(0, 6000)},
			{Cell: "CELL", Origin: geom.Pt(16000, 0), Rot: 90},
			{Cell: "CELL", Origin: geom.Pt(16000, 16000), Reflect: true},
		}},
		cell,
	}}
}

// flattenPair expands a library twice: once with the instance-provenance
// sidecar (the hierarchy-aware path) and once fully flat (the reference
// chain's input).
// Feature streams are required to be identical up front; everything
// downstream of them is what the differential compares.
func flattenPair(t *testing.T, lib *gds.Library) (hier, flat *Layout) {
	t.Helper()
	hier, err := lib.Flatten(gds.ReadOptions{TopCell: "TOP"})
	if err != nil {
		t.Fatal(err)
	}
	flat, err = lib.Flatten(gds.ReadOptions{TopCell: "TOP", Flatten: true})
	if err != nil {
		t.Fatal(err)
	}
	if hier.Hier == nil {
		t.Fatal("hierarchical flatten attached no sidecar")
	}
	if flat.Hier != nil {
		t.Fatal("flat flatten attached a sidecar")
	}
	if !slices.Equal(hier.Features, flat.Features) {
		t.Fatal("flatten modes produced different feature streams")
	}
	return hier, flat
}

// TestHierDifferential requires a read with the hierarchy sidecar to be
// bit-identical to the flat read at every pipeline stage, for both rules
// profiles and across worker counts, while identical placements share
// cluster solves. Sharing is by content, so the flat read, which carries no
// sidecar, shares exactly as many solves.
func TestHierDifferential(t *testing.T) {
	ctx := context.Background()
	lib := hierTestLibrary()
	for _, profile := range []string{"bright-90nm", "dark-90nm"} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", profile, workers), func(t *testing.T) {
				hl, fl := flattenPair(t, lib)
				eng := NewEngine(WithProfile(profile), WithParallelism(workers))
				s, ref := eng.NewSession(hl), referencePipeline(ctx, eng, fl)
				assertSamePipeline(t, t.Name(), ctx, s, ref)

				gr, err := s.Detect(ctx)
				if err != nil {
					t.Fatal(err)
				}
				st := gr.Detection.Stats
				if st.HierReusedShards == 0 || st.HierSolvedShards == 0 {
					t.Fatalf("no cluster solve was shared: %+v", st)
				}
				// The 2x2 AREF alone guarantees >1 identical placements.
				if st.HierReusedShards < st.HierSolvedShards {
					t.Fatalf("expected reuse to dominate on a repeated-cell layout: reused %d solved %d",
						st.HierReusedShards, st.HierSolvedShards)
				}
				if wst := ref.res.Detection.Stats; wst.HierReusedShards != st.HierReusedShards || wst.HierSolvedShards != st.HierSolvedShards {
					t.Fatalf("flat read shared %d/%d solves, hierarchical read %d/%d",
						wst.HierReusedShards, wst.HierSolvedShards, st.HierReusedShards, st.HierSolvedShards)
				}
			})
		}
	}
}

// TestHierFallbackDifferential places two cells inside shifter-interaction
// range, so their clusters merge across instance boundaries. The fused
// cluster solves on its own, the far placements still share a solve, and
// the results must be identical to the flat read.
func TestHierFallbackDifferential(t *testing.T) {
	ctx := context.Background()
	cell := &gds.Cell{Name: "CELL", Polys: []gds.Poly{crossPoly(0, 0)}}
	lib := &gds.Library{Name: "fallback", Cells: []*gds.Cell{
		{Name: "TOP", Refs: []gds.Ref{
			{Cell: "CELL", Origin: geom.Pt(0, 0)},
			// 1150 nm apart: arm tips are 150 apart, well inside
			// shifter-interaction range, fusing the two placements' clusters.
			{Cell: "CELL", Origin: geom.Pt(1150, 0)},
			// Two placements far away stay apart and share a solve in the
			// same run.
			{Cell: "CELL", Origin: geom.Pt(20000, 0)},
			{Cell: "CELL", Origin: geom.Pt(20000, 20000)},
		}},
		cell,
	}}
	hl, fl := flattenPair(t, lib)
	eng := NewEngine(WithParallelism(2))
	s := eng.NewSession(hl)
	assertSamePipeline(t, "fallback", ctx, s, referencePipeline(ctx, eng, fl))
	r, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Detection.Stats; st.HierReusedShards == 0 {
		t.Fatalf("expected the far placements to still reuse: %+v", st)
	}
}

// TestHierEditDifferential edits a session on a hierarchical layout and
// checks that after each mutation the incremental pipeline matches the
// reference chain on the same features with no hierarchy at all: editing
// must never let stale per-cell results leak into the result.
func TestHierEditDifferential(t *testing.T) {
	ctx := context.Background()
	hl, _ := flattenPair(t, hierTestLibrary())
	s := NewEngine(WithParallelism(2)).NewSession(hl)
	if _, err := s.Detect(ctx); err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		assertSamePipeline(t, step, ctx, s, referenceOf(ctx, s))
	}
	check("pre-edit")

	// Move a placed feature (drops its provenance), add a fresh gate, delete
	// a feature of another placement.
	mid := len(s.Layout().Features) / 2
	if err := s.MoveFeature(mid, s.Layout().Features[mid].Rect.Translate(Point{X: 40})); err != nil {
		t.Fatal(err)
	}
	check("after move")
	if _, err := s.AddFeature(R(-3000, -3000, -2900, -2000)); err != nil {
		t.Fatal(err)
	}
	check("after add")
	if err := s.DeleteFeature(2); err != nil {
		t.Fatal(err)
	}
	check("after delete")

	if fb := s.Stats().Incremental.FallbackDirty; fb != 0 {
		t.Fatalf("%d reuse-invariant fallbacks", fb)
	}
}

// TestHierSnapshotRoundTrip pins that a hierarchical edit session survives
// snapshot/restore with its sidecar and keeps producing identical results.
func TestHierSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	hl, _ := flattenPair(t, hierTestLibrary())
	eng := NewEngine(WithParallelism(2))
	s := eng.NewSession(hl)
	if _, err := s.Detect(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.RestoreSession(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Layout()
	if got.Hier == nil {
		t.Fatal("restore dropped the hierarchy sidecar")
	}
	if !slices.Equal(got.Hier.Cells, hl.Hier.Cells) ||
		!slices.Equal(got.Hier.PlacementCell, hl.Hier.PlacementCell) ||
		!slices.Equal(got.Hier.FeatureInstance, hl.Hier.FeatureInstance) {
		t.Fatal("sidecar changed across snapshot/restore")
	}
	assertSamePipeline(t, "restored", ctx, r, referenceOf(ctx, s))
}

// TestPolygonGroupStability pins the sub-rect→feature uid contract: the
// Group id linking one polygon's decomposed rectangles stays with each
// feature across session edits, so DRC attribution and later edits still
// address the original polygon after unrelated features move or vanish.
func TestPolygonGroupStability(t *testing.T) {
	lib := &gds.Library{Name: "POLY", Cells: []*gds.Cell{{
		Name: "TOP",
		Polys: []gds.Poly{
			crossPoly(1000, 1000),
			{Layer: 0, Pts: []geom.Point{{X: 4000, Y: 0}, {X: 4100, Y: 0}, {X: 4100, Y: 1000}, {X: 4000, Y: 1000}}},
			crossPoly(8000, 1000),
		},
	}}}
	l, err := lib.Flatten(gds.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	groupsOf := func(l *Layout) map[Rect]int {
		m := make(map[Rect]int, len(l.Features))
		for _, f := range l.Features {
			m[f.Rect] = f.Group
		}
		return m
	}
	before := groupsOf(l)
	groups := make(map[int]int)
	var loneRect Rect
	for _, f := range l.Features {
		groups[f.Group]++
		if f.Group == 0 {
			loneRect = f.Rect
		}
	}
	if len(groups) != 3 || groups[0] != 1 {
		t.Fatalf("expected 2 polygon groups + 1 plain rect, got %v", groups)
	}

	s := NewEngine().NewSession(l)
	// Delete the plain rect between the two polygons: indices shift, groups
	// must not.
	loneIdx := -1
	for i, f := range s.Layout().Features {
		if f.Rect == loneRect {
			loneIdx = i
		}
	}
	if err := s.DeleteFeature(loneIdx); err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Layout().Features {
		if f.Group != before[f.Rect] {
			t.Fatalf("delete changed group of %v: %d -> %d", f.Rect, before[f.Rect], f.Group)
		}
	}
	// Move one sub-rect of the first polygon: it keeps its group id, every
	// other feature keeps its own.
	moved := s.Layout().Features[0]
	dst := moved.Rect.Translate(Point{X: 10, Y: 0})
	if err := s.MoveFeature(0, dst); err != nil {
		t.Fatal(err)
	}
	if got := s.Layout().Features[0].Group; got != moved.Group {
		t.Fatalf("move changed the moved feature's group: %d -> %d", moved.Group, got)
	}
	for _, f := range s.Layout().Features[1:] {
		if f.Group != before[f.Rect] {
			t.Fatalf("move changed group of %v: %d -> %d", f.Rect, before[f.Rect], f.Group)
		}
	}
}
