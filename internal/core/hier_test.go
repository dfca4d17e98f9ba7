package core

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
)

// TestHierDedupClassification pins how the instance-aware fast path
// classifies conflict clusters by their features' placement tags. Pitch-500
// wires fuse into one cluster; clusters 100 000 apart stay separate. Every
// layout also carries a lone wire of its own placement far away, so each
// case has at least one instance-pure cluster and the plan is always built.
func TestHierDedupClassification(t *testing.T) {
	type wire struct {
		x    int64
		inst int32
	}
	lone := wire{x: 900_000, inst: 3}
	cases := []struct {
		name                     string
		wires                    []wire
		reused, solved, fallback int
	}{
		{"pure top-level", []wire{{0, -1}, {500, -1}}, 0, 1, 0},
		{"top-level plus placement", []wire{{0, -1}, {500, 0}}, 0, 1, 1},
		{"fused placements", []wire{{0, 0}, {500, 1}}, 0, 1, 1},
		{"identical placements", []wire{{0, 0}, {500, 0}, {100_000, 1}, {100_500, 1}}, 1, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := wireLayout(tc.name)
			h := &layout.Hierarchy{Cells: []string{"CELL"}, PlacementCell: []int32{0, 0, 0, 0}}
			add := func(w wire) {
				l.Add(geom.R(w.x, 0, w.x+100, 1000))
				h.FeatureInstance = append(h.FeatureInstance, w.inst)
			}
			for _, w := range tc.wires {
				add(w)
			}
			add(lone)
			if err := h.Validate(len(l.Features)); err != nil {
				t.Fatal(err)
			}
			flat, err := BuildGraph(l, rules(), PCG)
			if err != nil {
				t.Fatal(err)
			}
			want, err := DetectContext(context.Background(), flat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			l.Hier = h
			cg, err := BuildGraph(l, rules(), PCG)
			if err != nil {
				t.Fatal(err)
			}
			det, err := DetectContext(context.Background(), cg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := det.Stats
			if st.HierReusedShards != tc.reused || st.HierSolvedShards != tc.solved || st.HierFallbackShards != tc.fallback {
				t.Fatalf("reused/solved/fallback = %d/%d/%d, want %d/%d/%d",
					st.HierReusedShards, st.HierSolvedShards, st.HierFallbackShards,
					tc.reused, tc.solved, tc.fallback)
			}
			st.HierReusedShards, st.HierSolvedShards, st.HierFallbackShards = 0, 0, 0
			det.Stats = st
			detectionsEqual(t, tc.name, want, det)
		})
	}
}
