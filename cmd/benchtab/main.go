// Command benchtab regenerates the paper's evaluation artifacts on the
// synthetic benchmark suite:
//
//	benchtab -table 1 -n 5      # Table 1: conflict detection comparison
//	benchtab -table 2 -n 5      # Table 2: layout modification results
//	benchtab -fig 2             # Figure 2: PCG vs FG graph statistics
//	benchtab -fig 3             # Figures 3/4: gadget construction sizes
//	benchtab -json BENCH_detect.json -n 5 -workers 4
//	                            # machine-readable detection perf trajectory
//	benchtab -json out.json -n 5 -compare BENCH_detect.json
//	                            # …and gate structural counts against a baseline
//
// -n limits the number of suite designs (d1..dN); the full d8 run covers
// ~160K polygons and takes a few minutes.
//
// The -json mode runs the sharded detection flow and the incremental
// edit-repipeline measurement on each design and writes graph sizes,
// per-stage nanoseconds and allocation counts to the given file (see README
// "Performance" for the schema), so successive PRs leave a comparable perf
// trajectory in the repository.
//
// The -compare mode is CI's perf-regression gate: after writing the fresh
// JSON it checks every structural count (graph sizes, crossing pairs,
// shards, bipartization, conflicts) against the committed baseline within
// a generous ratio tolerance (default 2×), and fails allocations only when
// they rise beyond it. Counts are deterministic and allocations nearly so,
// so a gate trip means the algorithm changed shape — timing noise cannot
// trip it because timings are never compared.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	aapsm "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gds"
	"repro/internal/geom"
	"repro/internal/server"
)

func main() {
	var (
		table    = flag.Int("table", 0, "paper table to regenerate (1 or 2)")
		fig      = flag.Int("fig", 0, "paper figure to regenerate (2, 3/4)")
		n        = flag.Int("n", 5, "number of suite designs to run (1..8)")
		jsonPath = flag.String("json", "", "write the detection perf trajectory to this file (e.g. BENCH_detect.json)")
		workers  = flag.Int("workers", 0, "detection worker count for -json (0 = GOMAXPROCS)")
		compare  = flag.String("compare", "", "baseline BENCH_detect.json to gate structural counts against (with -json)")
		tol      = flag.Float64("tolerance", 2.0, "allowed count ratio for -compare (>= 1)")
	)
	flag.Parse()
	rules := aapsm.Default90nmRules()
	suite := bench.SmallSuite(*n)

	switch {
	case *jsonPath != "":
		doc, err := writeDetectJSON(*jsonPath, suite, rules, *workers)
		check(err)
		fmt.Printf("wrote %s (%d designs)\n", *jsonPath, len(suite))
		if *compare != "" {
			check(compareBaseline(doc, *compare, *tol))
			fmt.Printf("structural counts within %.1fx of %s\n", *tol, *compare)
		}
	case *table == 1:
		fmt.Println("Table 1: AAPSM conflict detection (quality and matching runtime)")
		fmt.Println(experiments.Table1Header())
		var avgGain float64
		for _, d := range suite {
			row, err := experiments.RunTable1Row(d, rules)
			check(err)
			fmt.Println(row)
			avgGain += row.Improvement()
		}
		fmt.Printf("average generalized-gadget matching gain: %.1f%% (paper: ~16%%)\n",
			avgGain/float64(len(suite)))

	case *table == 2:
		fmt.Println("Table 2: layout modification for a variety of designs")
		fmt.Println(experiments.Table2Header())
		minInc, maxInc, sum := 1e18, -1e18, 0.0
		for _, d := range suite {
			row, err := experiments.RunTable2Row(d, rules)
			check(err)
			fmt.Println(row)
			if row.AreaIncrease < minInc {
				minInc = row.AreaIncrease
			}
			if row.AreaIncrease > maxInc {
				maxInc = row.AreaIncrease
			}
			sum += row.AreaIncrease
		}
		fmt.Printf("area increase range %.2f%%..%.2f%%, average %.2f%% (paper: 0.7–11.8%%, avg ~4%%)\n",
			minInc, maxInc, sum/float64(len(suite)))

	case *fig == 2:
		st, err := experiments.RunFigure2(rules)
		check(err)
		fmt.Println("Figure 2: phase conflict graph vs feature graph (same layout)")
		fmt.Printf("  PCG: %3d nodes %3d edges %3d crossings\n", st.PCGNodes, st.PCGEdges, st.PCGCrossings)
		fmt.Printf("  FG : %3d nodes %3d edges %3d crossings (%d detour bends)\n",
			st.FGNodes, st.FGEdges, st.FGCrossings, st.FGBends)

	case *fig == 3 || *fig == 4:
		fmt.Println("Figures 3/4: gadget instance sizes by dual-node degree")
		fmt.Printf("%8s %18s %18s\n", "degree", "generalized(n/e)", "optimized(n/e)")
		for _, deg := range []int{3, 5, 8, 12, 20} {
			st, err := experiments.RunFigure34(deg)
			check(err)
			fmt.Printf("%8d %12d/%-6d %12d/%-6d\n", st.Degree,
				st.GeneralizedNodes, st.GeneralizedEdges,
				st.OptimizedNodes, st.OptimizedEdges)
		}

	default:
		fmt.Fprintln(os.Stderr, "benchtab: pass -table 1, -table 2, -fig 2 or -fig 3")
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
}

// detectStageNS is the per-stage wall/CPU breakdown of one detection run in
// nanoseconds. Build is graph construction; Cross is the global geometric
// crossing sweep; Planarize/Embed/Match/Recheck are summed across conflict
// clusters (CPU time when workers > 1); Total is wall clock for the flow
// (excluding Build).
type detectStageNS struct {
	Build     int64 `json:"build"`
	Cross     int64 `json:"cross"`
	Planarize int64 `json:"planarize"`
	Embed     int64 `json:"embed"`
	Match     int64 `json:"match"`
	Recheck   int64 `json:"recheck"`
	Total     int64 `json:"total"`
}

// detectRecord is one design's row in BENCH_detect.json.
type detectRecord struct {
	Name              string        `json:"name"`
	Polygons          int           `json:"polygons"`
	GraphNodes        int           `json:"graph_nodes"`
	GraphEdges        int           `json:"graph_edges"`
	CrossingPairs     int           `json:"crossing_pairs"`
	DualNodes         int           `json:"dual_nodes"`
	DualEdges         int           `json:"dual_edges"`
	OddFaces          int           `json:"odd_faces"`
	GadgetNodes       int           `json:"gadget_nodes"`
	GadgetEdges       int           `json:"gadget_edges"`
	Shards            int           `json:"shards"`
	LargestShardEdges int           `json:"largest_shard_edges"`
	Bipartization     int           `json:"bipartization_edges"`
	Conflicts         int           `json:"conflicts"`
	StageNS           detectStageNS `json:"stage_ns"`
	Allocs            uint64        `json:"allocs"`
	AllocBytes        uint64        `json:"alloc_bytes"`
	// Incremental edit-and-re-detect trajectory (schema v2): best-of-7
	// re-detect latency after a single-feature move on an edit session, the
	// clusters reused from cache on that re-detect, and the speedup vs the
	// full build+detect above.
	EditRedetectNS   int64   `json:"edit_redetect_ns"`
	EditReusedShards int     `json:"edit_reused_shards"`
	EditSpeedup      float64 `json:"edit_speedup"`
	// Incremental full-pipeline trajectory (schema v3): the from-scratch
	// pipeline latency (build + detect + assign + correct + mask + DRC), the
	// best-of-7 post-edit incremental re-pipeline latency, their ratio, and
	// the DRC pairs the measuring session's last re-run reused.
	PipelineNS          int64   `json:"pipeline_ns"`
	EditRepipelineNS    int64   `json:"edit_repipeline_ns"`
	EditPipelineSpeedup float64 `json:"edit_pipeline_speedup"`
	EditDRCPairsReused  int     `json:"edit_drc_pairs_reused"`
	// Session persistence trajectory (schema v4): the serialized snapshot
	// size of a pipeline-warmed session and the best-of-7 latency of
	// restoring it (decode + deterministic rebuild + memo re-run — aapsmd's
	// cold-start rehydration path), against the from-scratch pipeline_ns
	// above.
	SnapshotBytes  int     `json:"snapshot_bytes"`
	RestoreNS      int64   `json:"restore_ns"`
	RestoreSpeedup float64 `json:"restore_speedup"`
	// Contended serving trajectory (schema v5): served-edit throughput of
	// aapsmd's per-session edit coalescer under 16 concurrent writers (each
	// POSTing single-feature moves with ?detect=1 to one session), against
	// the one-request-one-pipeline baseline on the same grid, plus the
	// requests-per-pipeline coalesce ratio the batcher achieved.
	ServedEditsPerSec         float64 `json:"served_edits_per_sec"`
	ServedEditsBaselinePerSec float64 `json:"served_edits_baseline_per_sec"`
	ServedEditsSpeedup        float64 `json:"served_edits_speedup"`
	CoalesceRatio             float64 `json:"coalesce_ratio"`
	// Hierarchical trajectory (schema v6): detection latency on the design
	// placed as a cell in a 2x2 array (identical clusters share one solve,
	// so each cluster shape is solved once), and the cell-reuse ratio —
	// clusters covered per shared representative solved
	// ((HierReusedShards+HierSolvedShards)/HierSolvedShards). Every cluster
	// repeats in each of the 4 placements, so the ratio is at least 4, more
	// where clusters also repeat inside the cell.
	HierDetectNS       int64   `json:"hier_detect_ns"`
	HierCellReuseRatio float64 `json:"hier_cell_reuse_ratio"`
}

// detectTrajectory is the top-level BENCH_detect.json document.
type detectTrajectory struct {
	Schema      string         `json:"schema"`
	GeneratedAt string         `json:"generated_at"`
	GoMaxProcs  int            `json:"go_max_procs"`
	Workers     int            `json:"workers"`
	Designs     []detectRecord `json:"designs"`
}

func writeDetectJSON(path string, suite []bench.Design, rules aapsm.Rules, workers int) (*detectTrajectory, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	doc := &detectTrajectory{
		Schema:      "aapsm/bench_detect/v7",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Workers:     workers,
	}
	for _, d := range suite {
		l := bench.Generate(d.Name, d.Params)

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)

		tBuild := time.Now()
		cg, err := core.BuildGraph(l, rules, core.PCG)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		buildNS := time.Since(tBuild).Nanoseconds()
		det, err := core.DetectContext(context.Background(), cg, core.Options{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		runtime.ReadMemStats(&after)

		editNS, editReused, err := measureEditRedetect(d, rules, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: edit redetect: %w", d.Name, err)
		}
		pipe, err := measureEditRepipeline(d, rules, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: edit repipeline: %w", d.Name, err)
		}
		snapBytes, restoreNS, err := measureRestore(d, rules, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: restore: %w", d.Name, err)
		}
		served, err := measureServedContended(d, rules)
		if err != nil {
			return nil, fmt.Errorf("%s: contended serving: %w", d.Name, err)
		}
		hierNS, hierRatio, err := measureHierDetect(d, rules, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: hier detect: %w", d.Name, err)
		}

		s := det.Stats
		doc.Designs = append(doc.Designs, detectRecord{
			Name:              d.Name,
			Polygons:          len(l.Features),
			GraphNodes:        s.GraphNodes,
			GraphEdges:        s.GraphEdges,
			CrossingPairs:     s.CrossingPairs,
			DualNodes:         s.DualNodes,
			DualEdges:         s.DualEdges,
			OddFaces:          s.OddFaces,
			GadgetNodes:       s.GadgetNodes,
			GadgetEdges:       s.GadgetEdges,
			Shards:            s.Shards,
			LargestShardEdges: s.LargestShardEdges,
			Bipartization:     len(det.BipartizationEdges),
			Conflicts:         len(det.FinalConflicts),
			StageNS: detectStageNS{
				Build:     buildNS,
				Cross:     s.CrossTime.Nanoseconds(),
				Planarize: s.PlanarTime.Nanoseconds(),
				Embed:     s.EmbedTime.Nanoseconds(),
				Match:     s.MatchTime.Nanoseconds(),
				Recheck:   s.RecheckTime.Nanoseconds(),
				Total:     s.TotalTime.Nanoseconds(),
			},
			Allocs:           after.Mallocs - before.Mallocs,
			AllocBytes:       after.TotalAlloc - before.TotalAlloc,
			EditRedetectNS:   editNS,
			EditReusedShards: editReused,
			EditSpeedup:      float64(buildNS+s.TotalTime.Nanoseconds()) / float64(editNS),

			PipelineNS:          pipe.scratchNS,
			EditRepipelineNS:    pipe.editNS,
			EditPipelineSpeedup: float64(pipe.scratchNS) / float64(pipe.editNS),
			EditDRCPairsReused:  pipe.drcReused,

			SnapshotBytes:  snapBytes,
			RestoreNS:      restoreNS,
			RestoreSpeedup: float64(pipe.scratchNS) / float64(restoreNS),

			ServedEditsPerSec:         served.perSec,
			ServedEditsBaselinePerSec: served.baselinePerSec,
			ServedEditsSpeedup:        served.perSec / served.baselinePerSec,
			CoalesceRatio:             served.coalesceRatio,

			HierDetectNS:       hierNS,
			HierCellReuseRatio: hierRatio,
		})
		fmt.Printf("%-4s %7d polygons %8d edges %5d shards  total %8.2fms  edit-redetect %6.2fms (%.1fx)  edit-repipeline %6.2fms (%.1fx)  restore %6.2fms (%.1fx)  served-edits %6.0f/s (%.1fx, %.1f/batch)  hier-detect %6.2fms (reuse %.1fx)\n",
			d.Name, len(l.Features), s.GraphEdges, s.Shards,
			float64(s.TotalTime.Nanoseconds())/1e6,
			float64(editNS)/1e6, float64(buildNS+s.TotalTime.Nanoseconds())/float64(editNS),
			float64(pipe.editNS)/1e6, float64(pipe.scratchNS)/float64(pipe.editNS),
			float64(restoreNS)/1e6, float64(pipe.scratchNS)/float64(restoreNS),
			served.perSec, served.perSec/served.baselinePerSec, served.coalesceRatio,
			float64(hierNS)/1e6, hierRatio)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	buf = append(buf, '\n')
	return doc, os.WriteFile(path, buf, 0o644)
}

// measureEditRedetect times the incremental re-detect after a single-feature
// move on an edit session of the design (best of 7 alternating ±10 nm
// moves of the middle feature), and reports the clusters reused on the last
// re-detect.
func measureEditRedetect(d bench.Design, rules aapsm.Rules, workers int) (bestNS int64, reused int, err error) {
	ctx := context.Background()
	eng := aapsm.NewEngine(aapsm.WithRules(rules), aapsm.WithParallelism(workers))
	s := eng.NewSession(bench.Generate(d.Name, d.Params))
	mid := len(s.Layout().Features) / 2
	// Establish the cluster cache.
	if _, err := s.Detect(ctx); err != nil {
		return 0, 0, err
	}
	for k := 0; k < 7; k++ {
		r := s.Layout().Features[mid].Rect
		delta := int64(10)
		if k%2 == 1 {
			delta = -10
		}
		if err := s.MoveFeature(mid, r.Translate(aapsm.Point{X: delta})); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		res, err := s.Detect(ctx)
		if err != nil {
			return 0, 0, err
		}
		if ns := time.Since(t0).Nanoseconds(); bestNS == 0 || ns < bestNS {
			bestNS = ns
		}
		reused = res.Detection.Stats.ReusedShards
	}
	if st := s.Stats().Incremental; st.FallbackDirty != 0 {
		return 0, 0, fmt.Errorf("reuse invariant fallbacks: %+v", st)
	}
	return bestNS, reused, nil
}

// repipelineResult is one design's incremental full-pipeline measurement.
type repipelineResult struct {
	scratchNS, editNS int64
	drcReused         int
}

// runPipeline drives the full downstream flow on a session. Mask
// inconsistency (feature-edge conflicts) is a legitimate pipeline outcome
// and is tolerated; both the from-scratch and incremental paths hit it
// identically, so the timings stay comparable.
func runPipeline(ctx context.Context, s *aapsm.Session) error {
	if _, err := s.Detect(ctx); err != nil {
		return err
	}
	if _, err := s.Assignment(ctx); err != nil {
		return err
	}
	if _, err := s.Correction(ctx); err != nil {
		return err
	}
	if _, err := s.Mask(ctx); err != nil && !errors.Is(err, aapsm.ErrMaskInconsistent) {
		return err
	}
	s.DRC()
	return nil
}

// measureEditRepipeline times the full pipeline (detect + assign + correct +
// mask + DRC) from scratch on a fresh session, then the incremental
// re-pipeline after a single-feature move on an armed edit session (best of
// 7 alternating ±10 nm moves), and reports the DRC pairs the final re-run
// reused.
func measureEditRepipeline(d bench.Design, rules aapsm.Rules, workers int) (repipelineResult, error) {
	var out repipelineResult
	ctx := context.Background()
	eng := aapsm.NewEngine(aapsm.WithRules(rules), aapsm.WithParallelism(workers))
	l := bench.Generate(d.Name, d.Params)

	t0 := time.Now()
	if err := runPipeline(ctx, eng.NewSession(l)); err != nil {
		return out, err
	}
	out.scratchNS = time.Since(t0).Nanoseconds()

	s := eng.NewSession(bench.Generate(d.Name, d.Params))
	mid := len(s.Layout().Features) / 2
	if err := runPipeline(ctx, s); err != nil {
		return out, err
	}
	for k := 0; k < 7; k++ {
		r := s.Layout().Features[mid].Rect
		delta := int64(10)
		if k%2 == 1 {
			delta = -10
		}
		if err := s.MoveFeature(mid, r.Translate(aapsm.Point{X: delta})); err != nil {
			return out, err
		}
		before := s.Stats().Incremental
		t0 := time.Now()
		if err := runPipeline(ctx, s); err != nil {
			return out, err
		}
		if ns := time.Since(t0).Nanoseconds(); out.editNS == 0 || ns < out.editNS {
			out.editNS = ns
		}
		after := s.Stats().Incremental
		out.drcReused = after.DRCPairsReused - before.DRCPairsReused
	}
	if st := s.Stats().Incremental; st.FallbackDirty != 0 {
		return out, fmt.Errorf("reuse invariant fallbacks: %+v", st)
	}
	return out, nil
}

// measureRestore warms a session through the full pipeline, snapshots it,
// and times session rehydration from those bytes (best of 7): decode, the
// deterministic secondary-state rebuild, and the memoized-stage re-run. This
// is the cold-start path aapsmd takes for a request hitting a persisted
// session, reported against pipeline_ns (create + full pipeline from
// scratch).
func measureRestore(d bench.Design, rules aapsm.Rules, workers int) (snapBytes int, bestNS int64, err error) {
	ctx := context.Background()
	eng := aapsm.NewEngine(aapsm.WithRules(rules), aapsm.WithParallelism(workers))
	s := eng.NewSession(bench.Generate(d.Name, d.Params))
	if err := runPipeline(ctx, s); err != nil {
		return 0, 0, err
	}
	data, err := s.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	for k := 0; k < 7; k++ {
		t0 := time.Now()
		if _, err := eng.RestoreSessionWithParallelism(ctx, data, workers); err != nil {
			return 0, 0, err
		}
		if ns := time.Since(t0).Nanoseconds(); bestNS == 0 || ns < bestNS {
			bestNS = ns
		}
	}
	return len(data), bestNS, nil
}

// servedResult is one design's contended-serving measurement.
type servedResult struct {
	perSec         float64
	baselinePerSec float64
	coalesceRatio  float64
}

// measureServedContended drives aapsmd's HTTP handler in-process with 16
// concurrent writers (4 edits each, ?detect=1) against one session — once
// through the edit coalescer (best of 3) and once with coalescing disabled,
// one re-pipeline per request (the pre-batching serving model).
func measureServedContended(d bench.Design, rules aapsm.Rules) (servedResult, error) {
	var out servedResult
	const clients, editsPerClient = 16, 4
	eng := aapsm.NewEngine(aapsm.WithRules(rules), aapsm.WithParallelism(2))
	l := bench.Generate(d.Name, d.Params)
	for k := 0; k < 3; k++ {
		res, err := server.MeasureContendedEdits(l, eng, clients, editsPerClient, 32, 2*time.Millisecond)
		if err != nil {
			return out, err
		}
		if res.ServedPerSec > out.perSec {
			out.perSec = res.ServedPerSec
			out.coalesceRatio = res.CoalesceRatio
		}
		base, err := server.MeasureContendedEdits(l, eng, clients, editsPerClient, -1, 0)
		if err != nil {
			return out, err
		}
		if base.ServedPerSec > out.baselinePerSec {
			out.baselinePerSec = base.ServedPerSec
		}
	}
	return out, nil
}

// measureHierDetect places the design's layout as a library cell in a 2x2
// AREF array, flattens it with instance provenance, and times detection on
// the result (best of 3). With all four placements identical and the array
// pitch past shifter-interaction range, every conflict cluster has three
// identical copies, so detection solves each cluster shape once and copies
// the result to the others. The reported ratio is clusters covered per
// shared representative solved — at least 4.0 when sharing works.
func measureHierDetect(d bench.Design, rules aapsm.Rules, workers int) (bestNS int64, ratio float64, err error) {
	flat := bench.Generate(d.Name, d.Params)
	cell := &gds.Cell{Name: "CELL"}
	minX, minY := int64(1<<62), int64(1<<62)
	maxX, maxY := int64(-1<<62), int64(-1<<62)
	for _, f := range flat.Features {
		r := f.Rect
		cell.Polys = append(cell.Polys, gds.Poly{Layer: f.Layer, Pts: []geom.Point{
			{X: r.X0, Y: r.Y0}, {X: r.X1, Y: r.Y0}, {X: r.X1, Y: r.Y1}, {X: r.X0, Y: r.Y1},
		}})
		minX, maxX = min(minX, r.X0), max(maxX, r.X1)
		minY, maxY = min(minY, r.Y0), max(maxY, r.Y1)
	}
	// Clearance past shifter reach (gap+width = 240 per side) plus
	// interaction range (300) keeps neighboring placements independent.
	const margin = 1000
	lib := &gds.Library{Name: d.Name + "-2x2", Cells: []*gds.Cell{
		{Name: "TOP", Refs: []gds.Ref{{
			Cell: "CELL", Cols: 2, Rows: 2,
			ColStep: geom.Pt(maxX-minX+margin, 0),
			RowStep: geom.Pt(0, maxY-minY+margin),
		}}},
		cell,
	}}
	l, err := lib.Flatten(gds.ReadOptions{TopCell: "TOP"})
	if err != nil {
		return 0, 0, err
	}
	var reused, solved int
	for k := 0; k < 3; k++ {
		cg, err := core.BuildGraph(l, rules, core.PCG)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		det, err := core.DetectContext(context.Background(), cg, core.Options{Workers: workers})
		if err != nil {
			return 0, 0, err
		}
		if ns := time.Since(t0).Nanoseconds(); bestNS == 0 || ns < bestNS {
			bestNS = ns
		}
		reused, solved = det.Stats.HierReusedShards, det.Stats.HierSolvedShards
	}
	if solved == 0 {
		return 0, 0, fmt.Errorf("no cluster solve was shared (reused %d)", reused)
	}
	return bestNS, float64(reused+solved) / float64(solved), nil
}

// compareBaseline checks the structural counts of doc against the committed
// baseline file within the given ratio tolerance. Only designs present in
// both documents are compared; timings are deliberately ignored.
func compareBaseline(doc *detectTrajectory, path string, tol float64) error {
	if tol < 1 {
		return fmt.Errorf("tolerance %g must be >= 1", tol)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base detectTrajectory
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	baseByName := make(map[string]detectRecord, len(base.Designs))
	for _, r := range base.Designs {
		baseByName[r.Name] = r
	}
	var problems []string
	for _, got := range doc.Designs {
		want, ok := baseByName[got.Name]
		if !ok {
			continue
		}
		checkCount := func(field string, g, w int64) {
			if g == w {
				return
			}
			lo, hi := float64(w)/tol, float64(w)*tol
			if w == 0 || float64(g) < lo || float64(g) > hi {
				problems = append(problems,
					fmt.Sprintf("%s: %s = %d, baseline %d (outside %.1fx)", got.Name, field, g, w, tol))
			}
		}
		checkCount("polygons", int64(got.Polygons), int64(want.Polygons))
		checkCount("graph_nodes", int64(got.GraphNodes), int64(want.GraphNodes))
		checkCount("graph_edges", int64(got.GraphEdges), int64(want.GraphEdges))
		checkCount("crossing_pairs", int64(got.CrossingPairs), int64(want.CrossingPairs))
		checkCount("shards", int64(got.Shards), int64(want.Shards))
		checkCount("bipartization_edges", int64(got.Bipartization), int64(want.Bipartization))
		checkCount("conflicts", int64(got.Conflicts), int64(want.Conflicts))
		// Allocations are gated one-sided: a rise beyond the tolerance is a
		// regression, a cut of any size is progress.
		if float64(got.Allocs) > float64(want.Allocs)*tol {
			problems = append(problems,
				fmt.Sprintf("%s: allocs = %d, baseline %d (above %.1fx)", got.Name, got.Allocs, want.Allocs, tol))
		}
		// Snapshot size is deterministic for a layout+rules pair; only gate it
		// once the baseline carries the v4 field.
		if want.SnapshotBytes != 0 {
			checkCount("snapshot_bytes", int64(got.SnapshotBytes), int64(want.SnapshotBytes))
		}
		// Coalescing effectiveness is structural (requests per pipeline run),
		// gated one-sided once the baseline carries the v5 field: a collapse
		// back toward one-request-one-pipeline must trip the gate, while
		// coalescing MORE than the baseline is progress, not regression.
		if want.CoalesceRatio > 1 && got.CoalesceRatio < want.CoalesceRatio/tol {
			problems = append(problems,
				fmt.Sprintf("%s: coalesce_ratio = %.2f, baseline %.2f (collapsed beyond %.1fx)", got.Name, got.CoalesceRatio, want.CoalesceRatio, tol))
		}
		// Solve sharing is structural too (clusters covered per shared
		// representative on a deterministic 2x2 array), gated one-sided once
		// the baseline carries the v6 field: losing the sharing must trip
		// the gate, sharing more never does.
		if want.HierCellReuseRatio > 1 && got.HierCellReuseRatio < want.HierCellReuseRatio/tol {
			problems = append(problems,
				fmt.Sprintf("%s: hier_cell_reuse_ratio = %.2f, baseline %.2f (sharing lost beyond %.1fx)", got.Name, got.HierCellReuseRatio, want.HierCellReuseRatio, tol))
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "benchtab: perf gate: %s\n", p)
		}
		return fmt.Errorf("%d structural count(s) regressed vs %s", len(problems), path)
	}
	return nil
}
