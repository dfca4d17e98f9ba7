package planar_test

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/layout"
)

// TestCrossingsWorkers checks that the crossing sweep returns the same
// ascending pair list at one, two and four workers on the d1–d5 phase
// conflict graphs and feature graphs, and that every pair really crosses.
func TestCrossingsWorkers(t *testing.T) {
	r := layout.Default90nm()
	for _, d := range bench.Suite()[:5] {
		l := bench.Generate(d.Name, d.Params)
		for _, kind := range []core.GraphKind{core.PCG, core.FG} {
			cg, err := core.BuildGraph(l, r, kind)
			if err != nil {
				t.Fatal(err)
			}
			want := cg.Drawing.Crossings(1)
			if len(want) == 0 {
				t.Fatalf("%s/%v: no crossings", d.Name, kind)
			}
			if !slices.IsSortedFunc(want, func(a, b [2]int) int {
				return slices.Compare(a[:], b[:])
			}) {
				t.Fatalf("%s/%v: pairs not ascending", d.Name, kind)
			}
			for _, p := range want {
				if p[0] >= p[1] || !cg.Drawing.EdgesCross(p[0], p[1]) {
					t.Fatalf("%s/%v: pair %v does not cross", d.Name, kind, p)
				}
			}
			for _, workers := range []int{2, 4} {
				if got := cg.Drawing.Crossings(workers); !slices.Equal(got, want) {
					t.Fatalf("%s/%v: %d workers give %d pairs, one worker %d", d.Name, kind, workers, len(got), len(want))
				}
			}
		}
	}
}
