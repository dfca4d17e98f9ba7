// Package experiments reproduces the paper's evaluation section: it runs
// the detection and correction flows over the synthetic benchmark suite and
// produces the rows of Table 1 and Table 2 plus the figure statistics. Both
// cmd/benchtab and the top-level benchmark harness drive this package.
//
// The pipeline measurements go through the public Engine/Session API; only
// measurements that need raw graph internals (drawing crossings, gadget
// instance sizes, the greedy baseline on an already-built graph) reach into
// the internal packages directly.
package experiments

import (
	"context"
	"fmt"
	"time"

	aapsm "repro"
	"repro/internal/bench"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/tjoin"
)

// Table1Row is one line of the conflict-detection comparison:
// quality (conflicts selected by NP / FG / PCG / GB) and matching runtime
// with optimized vs generalized gadgets.
type Table1Row struct {
	Design   string
	Polygons int
	Nodes    int // PCG nodes
	Edges    int // PCG edges

	NP  int // bipartization-only conflicts on the PCG (no embedding cost)
	FG  int // full flow on the feature graph
	PCG int // full flow on the phase conflict graph
	GB  int // greedy bipartization baseline

	CrossingsPCG int
	CrossingsFG  int

	// Matching runtime with optimized (TCAD'99) and generalized (this
	// paper) gadgets, plus instance sizes.
	OGadgetTime  time.Duration
	GGadgetTime  time.Duration
	OGadgetNodes int
	GGadgetNodes int
}

// Improvement returns the relative matching-runtime gain of the generalized
// gadget in percent (the paper reports ≈16% on average).
func (r Table1Row) Improvement() float64 {
	if r.OGadgetTime == 0 {
		return 0
	}
	return 100 * (1 - float64(r.GGadgetTime)/float64(r.OGadgetTime))
}

// RunTable1Row executes all four detection variants on one design.
func RunTable1Row(d bench.Design, rules layout.Rules) (Table1Row, error) {
	l := bench.Generate(d.Name, d.Params)
	return Table1RowFor(l, rules)
}

// Table1RowFor executes the Table 1 measurements on an arbitrary layout.
// Matching runtimes are the minimum over a few repetitions on smaller
// designs to suppress scheduler noise.
func Table1RowFor(l *layout.Layout, rules layout.Rules) (Table1Row, error) {
	row := Table1Row{Design: l.Name, Polygons: len(l.Features)}
	//aapsmvet:allow ctxflow experiment driver reproducing a paper table; runs to completion by design, no caller to cancel it
	ctx := context.Background()
	reps := 5
	if len(l.Features) > 50000 {
		reps = 1
	}

	engGen := aapsm.NewEngine(aapsm.WithRules(rules),
		aapsm.WithTJoinMethod(aapsm.GeneralizedGadgets))
	engOpt := aapsm.NewEngine(aapsm.WithRules(rules),
		aapsm.WithTJoinMethod(aapsm.OptimizedGadgets))
	engFG := aapsm.NewEngine(aapsm.WithRules(rules), aapsm.WithGraph(aapsm.FG))

	// PCG + generalized gadgets (the proposed flow).
	resG, err := engGen.Detect(ctx, l)
	if err != nil {
		return row, err
	}
	row.Nodes, row.Edges = resG.Graph.Nodes(), resG.Graph.Edges()
	row.PCG = len(resG.Conflicts())
	row.NP = len(resG.Detection.BipartizationEdges)
	row.CrossingsPCG = resG.Detection.Stats.CrossingPairs
	row.GGadgetTime = resG.Detection.Stats.MatchTime
	row.GGadgetNodes = resG.Detection.Stats.GadgetNodes

	// PCG + optimized gadgets: same conflicts, different runtime.
	resO, err := engOpt.Detect(ctx, l)
	if err != nil {
		return row, err
	}
	row.OGadgetTime = resO.Detection.Stats.MatchTime
	row.OGadgetNodes = resO.Detection.Stats.GadgetNodes

	// A fresh session per repetition re-runs the full flow (memoization is
	// per session, not per engine), keeping the minimum matching time.
	for i := 1; i < reps; i++ {
		r1, err := engGen.Detect(ctx, l)
		if err != nil {
			return row, err
		}
		if t := r1.Detection.Stats.MatchTime; t < row.GGadgetTime {
			row.GGadgetTime = t
		}
		r2, err := engOpt.Detect(ctx, l)
		if err != nil {
			return row, err
		}
		if t := r2.Detection.Stats.MatchTime; t < row.OGadgetTime {
			row.OGadgetTime = t
		}
	}

	// Feature graph baseline.
	resF, err := engFG.Detect(ctx, l)
	if err != nil {
		return row, err
	}
	row.FG = len(resF.Conflicts())
	row.CrossingsFG = resF.Detection.Stats.CrossingPairs

	// Greedy bipartization baseline, reusing the PCG already built above.
	row.GB = len(core.GreedyDetect(resG.Graph).FinalConflicts)
	return row, nil
}

// Table1Header returns the column header line.
func Table1Header() string {
	return fmt.Sprintf("%-6s %8s %8s %8s | %6s %6s %6s %6s | %9s %9s %6s | %10s %10s %7s",
		"design", "polys", "nodes", "edges",
		"NP", "FG", "PCG", "GB",
		"crossPCG", "crossFG", "ratio",
		"O-gadget", "G-gadget", "gain%")
}

// String renders the row like the paper's Table 1.
func (r Table1Row) String() string {
	ratio := 0.0
	if r.CrossingsPCG > 0 {
		ratio = float64(r.CrossingsFG) / float64(r.CrossingsPCG)
	}
	return fmt.Sprintf("%-6s %8d %8d %8d | %6d %6d %6d %6d | %9d %9d %5.1fx | %10v %10v %6.1f%%",
		r.Design, r.Polygons, r.Nodes, r.Edges,
		r.NP, r.FG, r.PCG, r.GB,
		r.CrossingsPCG, r.CrossingsFG, ratio,
		r.OGadgetTime.Round(time.Microsecond), r.GGadgetTime.Round(time.Microsecond),
		r.Improvement())
}

// Table2Row is one line of the layout-modification experiment.
type Table2Row struct {
	Design       string
	AreaUm2      float64 // design area in µm²
	Conflicts    int     // conflicts selected by detection
	GridLines    int     // cut lines actually inserted
	MaxPerLine   int     // most conflicts corrected by a single line
	Unfixable    int     // mask-split fallbacks
	AreaIncrease float64 // percent
	DRCClean     bool
	Assignable   bool // modified layout passes Theorem 1
}

// RunTable2Row executes detection + correction on one design.
func RunTable2Row(d bench.Design, rules layout.Rules) (Table2Row, error) {
	l := bench.Generate(d.Name, d.Params)
	return Table2RowFor(l, rules)
}

// Table2RowFor executes the Table 2 measurement on an arbitrary layout.
func Table2RowFor(l *layout.Layout, rules layout.Rules) (Table2Row, error) {
	row := Table2Row{Design: l.Name, AreaUm2: float64(l.Area()) / 1e6}
	//aapsmvet:allow ctxflow experiment driver reproducing a paper table; runs to completion by design, no caller to cancel it
	ctx := context.Background()
	s := aapsm.NewEngine(aapsm.WithRules(rules)).NewSession(l)
	res, err := s.Detect(ctx)
	if err != nil {
		return row, err
	}
	row.Conflicts = len(res.Conflicts())
	cor, err := s.Correction(ctx) // reuses the session's detection
	if err != nil {
		return row, err
	}
	st := cor.Stats
	row.GridLines = st.Cuts
	row.MaxPerLine = st.MaxPerLine
	row.Unfixable = st.Unfixable
	row.AreaIncrease = st.AreaIncrease
	row.DRCClean = drc.Clean(cor.Layout, rules)
	ok, err := aapsm.Assignable(cor.Layout, rules)
	if err != nil {
		return row, err
	}
	row.Assignable = ok || st.Unfixable > 0
	return row, nil
}

// Table2Header returns the column header line.
func Table2Header() string {
	return fmt.Sprintf("%-6s %12s %10s %6s %5s %10s %8s %6s %6s",
		"design", "area(µm²)", "conflicts", "grid", "max", "unfixable", "area+%", "drc", "phase")
}

// String renders the row like the paper's Table 2.
func (r Table2Row) String() string {
	return fmt.Sprintf("%-6s %12.1f %10d %6d %5d %10d %7.2f%% %6v %6v",
		r.Design, r.AreaUm2, r.Conflicts, r.GridLines, r.MaxPerLine,
		r.Unfixable, r.AreaIncrease, r.DRCClean, r.Assignable)
}

// Figure2Stats compares PCG vs FG on the Figure-2 layout: node, edge and
// crossing counts (the figure's qualitative claim).
type Figure2Stats struct {
	PCGNodes, PCGEdges, PCGCrossings int
	FGNodes, FGEdges, FGCrossings    int
	FGBends                          int
}

// RunFigure2 computes the graph-comparison statistics. It needs raw drawing
// crossings before planarization, so it builds the graphs via internal/core
// rather than running full sessions.
func RunFigure2(rules layout.Rules) (Figure2Stats, error) {
	l := bench.Figure2Layout()
	var st Figure2Stats
	cgP, err := core.BuildGraph(l, rules, core.PCG)
	if err != nil {
		return st, err
	}
	st.PCGNodes, st.PCGEdges = cgP.Nodes(), cgP.Edges()
	st.PCGCrossings = len(cgP.Drawing.Crossings(1))
	cgF, err := core.BuildGraph(l, rules, core.FG)
	if err != nil {
		return st, err
	}
	st.FGNodes, st.FGEdges = cgF.Nodes()+cgF.BendNodes, cgF.Edges()
	st.FGCrossings = len(cgF.Drawing.Crossings(1))
	st.FGBends = cgF.BendNodes
	return st, nil
}

// Figure34Stats reports gadget instance sizes for a fixed dual node degree,
// contrasting group caps (Figure 3: generalized gadget construction;
// Figure 4: the degree-5 modified complete gadget).
type Figure34Stats struct {
	Degree           int
	GeneralizedNodes int
	OptimizedNodes   int
	GeneralizedEdges int
	OptimizedEdges   int
}

// RunFigure34 builds a star dual of the given degree and reports the gadget
// sizes produced by both reductions.
func RunFigure34(degree int) (Figure34Stats, error) {
	st := Figure34Stats{Degree: degree}
	g := graphStar(degree)
	T := []int{1, 2} // two leaves
	rg, err := tjoin.SolveGadget(g, T, tjoin.Unbounded)
	if err != nil {
		return st, err
	}
	ro, err := tjoin.SolveGadget(g, T, 3)
	if err != nil {
		return st, err
	}
	st.GeneralizedNodes, st.GeneralizedEdges = rg.GadgetNodes, rg.GadgetEdges
	st.OptimizedNodes, st.OptimizedEdges = ro.GadgetNodes, ro.GadgetEdges
	return st, nil
}

func graphStar(degree int) *graph.Graph {
	g := graph.New(degree + 1)
	for i := 1; i <= degree; i++ {
		g.AddEdge(0, i, int64(i))
	}
	return g
}

// CorrectionComparison contrasts the paper's end-to-end-space correction
// with the related-work compaction-style expansion (refs [2,3]) on the same
// detected conflicts.
type CorrectionComparison struct {
	Design            string
	Conflicts         int
	EndToEndAreaPct   float64
	CompactionAreaPct float64
	CompactionMoved   int
}

// RunCorrectionComparison measures both correction strategies on a design.
func RunCorrectionComparison(d bench.Design, rules layout.Rules) (CorrectionComparison, error) {
	l := bench.Generate(d.Name, d.Params)
	out := CorrectionComparison{Design: d.Name}
	//aapsmvet:allow ctxflow experiment driver reproducing a paper table; runs to completion by design, no caller to cancel it
	ctx := context.Background()
	s := aapsm.NewEngine(aapsm.WithRules(rules)).NewSession(l)
	res, err := s.Detect(ctx)
	if err != nil {
		return out, err
	}
	out.Conflicts = len(res.Conflicts())

	cor, err := s.Correction(ctx)
	if err != nil {
		return out, err
	}
	out.EndToEndAreaPct = cor.Stats.AreaIncrease

	reqs, _ := compact.RequirementsFromConflicts(l, rules, res.Graph.Set, res.Detection.FinalConflicts)
	cres, err := compact.Expand(l, rules, reqs)
	if err != nil {
		return out, err
	}
	before, after := l.Area(), cres.Layout.Area()
	if before > 0 {
		out.CompactionAreaPct = 100 * float64(after-before) / float64(before)
	}
	out.CompactionMoved = cres.MovedX + cres.MovedY
	if !drc.Clean(cres.Layout, rules) {
		return out, fmt.Errorf("experiments: compaction broke DRC on %s", d.Name)
	}
	return out, nil
}
