package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/layout"
)

// tiledHierLayout places n copies of base side by side, each tagged as one
// placement of a single cell in a hierarchy sidecar. Every copy after the
// first also adds an untagged top-level copy of base's first feature half a
// pitch back, inside the previous copy, so some clusters mix top-level and
// placed geometry.
func tiledHierLayout(base *layout.Layout, n int) *layout.Layout {
	var box geom.Rect
	for _, f := range base.Features {
		box = box.Union(f.Rect)
	}
	pitch := box.Width() + 10_000
	l := layout.New(base.Name + "-tiled")
	h := &layout.Hierarchy{Cells: []string{base.Name}, PlacementCell: make([]int32, n)}
	for p := 0; p < n; p++ {
		dx := int64(p) * pitch
		for _, f := range base.Features {
			r := f.Rect
			l.AddOnLayer(geom.R(r.X0+dx, r.Y0, r.X1+dx, r.Y1), f.Layer)
			h.FeatureInstance = append(h.FeatureInstance, int32(p))
		}
		if p > 0 {
			r := base.Features[0].Rect
			l.AddOnLayer(geom.R(r.X0+dx-pitch/2, r.Y0, r.X1+dx-pitch/2, r.Y1), base.Features[0].Layer)
			h.FeatureInstance = append(h.FeatureInstance, -1)
		}
	}
	l.Hier = h
	return l
}

// TestDetectEntryPointsAgree checks the three ways into the one cluster
// solve-and-merge routine against each other: a from-scratch DetectContext,
// an Incremental engine's first Detect, and the Detection an engine restored
// from its exported state rebuilds. Conflict sets and every Stats counter —
// the instance-aware and reuse tallies included — must be equal.
func TestDetectEntryPointsAgree(t *testing.T) {
	ctx := context.Background()
	d := shardGrid()[1]
	flat := bench.Generate(d.Name, d.Params)
	layouts := []*layout.Layout{flat, tiledHierLayout(flat, 3)}
	for _, l := range layouts {
		for _, kind := range []GraphKind{PCG, FG} {
			for _, w := range []int{1, 4} {
				tag := fmt.Sprintf("%s/%v/workers=%d", l.Name, kind, w)
				opt := Options{Workers: w}
				cg, err := BuildGraph(l, rules(), kind)
				if err != nil {
					t.Fatal(err)
				}
				want, err := DetectContext(ctx, cg, opt)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if st := want.Stats; l.Hier != nil && (st.HierReusedShards == 0 || st.HierFallbackShards == 0) {
					t.Fatalf("%s: tiled layout does not exercise the instance-aware path: %+v", tag, st)
				}

				inc, err := NewIncremental(l, rules(), kind, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := inc.Detect(ctx)
				if err != nil {
					t.Fatalf("%s: incremental: %v", tag, err)
				}
				detectionsEqual(t, tag+"/incremental", want, got)

				restored, err := RestoreIncremental(inc.ExportState(), rules(), kind, opt)
				if err != nil {
					t.Fatalf("%s: restore: %v", tag, err)
				}
				got, err = restored.Detect(ctx)
				if err != nil {
					t.Fatalf("%s: restored: %v", tag, err)
				}
				detectionsEqual(t, tag+"/restored", want, got)
			}
		}
	}
}
