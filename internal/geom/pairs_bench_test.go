package geom_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
)

// sweepInput is the input of one production Pairs call.
type sweepInput struct {
	boxes []geom.Rect
	cell  int64
}

// d5SweepInputs returns the shifter-overlap and crossing sweeps of the
// suite's d5 design (≈18 K polygons), built the way shifter.Generate and
// planar.Crossings build them.
func d5SweepInputs(tb testing.TB) (shifters, crossings sweepInput) {
	tb.Helper()
	d := bench.Suite()[4]
	l := bench.Generate(d.Name, d.Params)
	r := layout.Default90nm()
	cg, err := core.BuildGraph(l, r, core.PCG)
	if err != nil {
		tb.Fatal(err)
	}
	for _, sh := range cg.Set.Shifters {
		shifters.boxes = append(shifters.boxes, sh.Rect.Expand(r.MinShifterSpacing/2))
	}
	shifters.cell = r.MinShifterSpacing + r.ShifterWidth
	dr := cg.Drawing
	var sum int64
	for e := 0; e < dr.G.M(); e++ {
		bb := dr.EdgeBounds(e)
		crossings.boxes = append(crossings.boxes, bb)
		sum += bb.Width() + bb.Height()
	}
	crossings.cell = max(sum/int64(2*len(crossings.boxes))+1, 16)
	return shifters, crossings
}

// BenchmarkPairs times the pair-sweep kernel alone on d5's shifter and
// crossing boxes, keeping no pair, at one and two workers.
func BenchmarkPairs(b *testing.B) {
	sh, cr := d5SweepInputs(b)
	for _, c := range []struct {
		name string
		in   sweepInput
	}{{"shifters_d5", sh}, {"crossings_d5", cr}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, n := geom.Pairs(c.in.boxes, c.in.cell, workers, func(_, _ int32) bool { return false })
					if n == 0 {
						b.Fatal("no candidate pairs")
					}
				}
			})
		}
	}
}
