package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	aapsm "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/drc"
	"repro/internal/gds"
	"repro/internal/geom"
	"repro/internal/mask"
	"repro/internal/shifter"
)

// rootSpan names the span around one whole traced flow.
const rootSpan = "flow"

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// flowInput is one generated layout held as GDS bytes, the only thing the
// program sees.
type flowInput struct {
	gds      []byte
	readOpt  gds.ReadOptions
	polygons int // flattened feature count
	// flatCheck, when set, is a second read of the same bytes whose flow
	// must produce the same outputs (hier_array: Flatten: true).
	flatCheck *gds.ReadOptions
}

// suiteParams returns the generator parameters of the named bench.Suite
// design, canonical seed included.
func suiteParams(name string) (bench.Params, error) {
	for _, d := range bench.Suite() {
		if d.Name == name {
			return d.Params, nil
		}
	}
	return bench.Params{}, fmt.Errorf("no suite design %q", name)
}

// flatFlowInput generates a standard-cell layout as flat GDS.
func flatFlowInput(p bench.Params) (*flowInput, error) {
	l := bench.Generate("d5", p)
	var buf bytes.Buffer
	if err := gds.Write(&buf, l); err != nil {
		return nil, fmt.Errorf("write d5 gds: %w", err)
	}
	return &flowInput{gds: buf.Bytes(), polygons: len(l.Features)}, nil
}

// hierArrayInput generates a standard-cell layout as a cell placed in a 3×3
// AREF.
func hierArrayInput(p bench.Params) (*flowInput, error) {
	const cols, rows = 3, 3
	cellLayout := bench.Generate("d3", p)
	cell := &gds.Cell{Name: "CELL"}
	bb := cellLayout.BBox()
	for _, f := range cellLayout.Features {
		r := f.Rect
		cell.Polys = append(cell.Polys, gds.Poly{Layer: f.Layer, Pts: []geom.Point{
			{X: r.X0, Y: r.Y0}, {X: r.X1, Y: r.Y0}, {X: r.X1, Y: r.Y1}, {X: r.X0, Y: r.Y1},
		}})
	}
	// Shifters reach 240 nm past a feature and interact within 300 nm, so
	// 1000 nm of clearance keeps the placements independent.
	const margin = 1000
	lib := &gds.Library{Name: "d3-3x3", Cells: []*gds.Cell{
		{Name: "TOP", Refs: []gds.Ref{{
			Cell: "CELL", Cols: cols, Rows: rows,
			ColStep: geom.Pt(bb.Width()+margin, 0),
			RowStep: geom.Pt(0, bb.Height()+margin),
		}}},
		cell,
	}}
	var buf bytes.Buffer
	if err := gds.WriteLibrary(&buf, lib); err != nil {
		return nil, fmt.Errorf("write d3 array gds: %w", err)
	}
	return &flowInput{
		gds:       buf.Bytes(),
		polygons:  cols * rows * len(cellLayout.Features),
		flatCheck: &gds.ReadOptions{Flatten: true},
	}, nil
}

// flowOutcome is what one full flow produced.
type flowOutcome struct {
	res      *aapsm.Result
	assign   *aapsm.Assignment
	verify   []aapsm.Violation
	cor      *aapsm.Correction
	mask     *aapsm.Layout
	maskErr  error // ErrMaskInconsistent only; any other error fails the flow
	drc      []aapsm.DRCViolation
	polygons int
}

// maskProblem returns the error a flow reports for mask validation
// problems, in the same form on both paths.
func maskProblem(p []string) error {
	return fmt.Errorf("%w: %s", aapsm.ErrMaskInconsistent, p[0])
}

// sessionFlow runs one full flow through the public Engine/Session API:
// read → detect → assign → correct → mask → DRC.
func sessionFlow(ctx context.Context, eng *aapsm.Engine, data []byte, opt gds.ReadOptions) (*flowOutcome, error) {
	l, err := aapsm.ReadGDSWith(bytes.NewReader(data), opt)
	if err != nil {
		return nil, err
	}
	s := eng.NewSession(l)
	out := &flowOutcome{polygons: len(l.Features)}
	if out.res, err = s.Detect(ctx); err != nil {
		return nil, err
	}
	if out.assign, err = s.Assignment(ctx); err != nil {
		return nil, err
	}
	if out.cor, err = s.Correction(ctx); err != nil {
		return nil, err
	}
	if out.mask, err = s.Mask(ctx); err != nil {
		var fe *aapsm.FlowError
		if !errors.Is(err, aapsm.ErrMaskInconsistent) || !errors.As(err, &fe) {
			return nil, err
		}
		out.maskErr = fe.Err
	}
	out.drc = s.DRC()
	return out, nil
}

// layeredFlow runs the same flow as sessionFlow by calling each layer
// directly, recording one span per call.
func layeredFlow(ctx context.Context, rec *recorder, eng *aapsm.Engine, workers int, data []byte, opt gds.ReadOptions) (*flowOutcome, error) {
	rules := eng.Rules()
	root := rec.begin(rootSpan)
	defer rec.end(root)
	var (
		out = &flowOutcome{}
		set *shifter.Set
		cg  *core.ConflictGraph
		det *core.Detection
		l   *aapsm.Layout
		err error
	)
	steps := []struct {
		name string
		f    func() error
	}{
		{"gds.read", func() error { l, err = gds.ReadWith(bytes.NewReader(data), opt); return err }},
		{"shifter.generate", func() error { set, err = shifter.Generate(l, rules); return err }},
		{"core.build", func() error {
			cg, err = core.BuildGraphFromSet(l, rules, set, eng.DetectOptions().Graph)
			return err
		}},
		{"core.detect", func() error {
			det, err = core.DetectContext(ctx, cg, core.Options{Workers: workers})
			return err
		}},
		{"core.assign", func() error { out.assign, err = core.AssignPhases(det); return err }},
		{"core.verify", func() error { out.verify = out.assign.Verify(cg); return nil }},
		{"correct.plan", func() error {
			plan, err := correct.BuildPlan(l, rules, cg.Set, det.FinalConflicts)
			if err != nil {
				return err
			}
			mod := correct.Apply(l, plan)
			out.cor = &aapsm.Correction{Plan: plan, Layout: mod, Stats: correct.Summarize(l, plan, mod)}
			return nil
		}},
		{"mask.validate", func() error {
			if p := mask.Validate(l, cg.Set, out.assign.Phases, out.assign.Waived, rules); len(p) != 0 {
				out.maskErr = maskProblem(p)
			}
			return nil
		}},
		{"mask.build", func() error {
			if out.maskErr != nil {
				return nil
			}
			out.mask, err = mask.Build(l, cg.Set, out.assign.Phases, rules.Tone)
			return err
		}},
		{"drc.check", func() error { out.drc = drc.Check(l, rules); return nil }},
	}
	for _, st := range steps {
		if err := rec.do(st.name, st.f); err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	if len(out.verify) != 0 {
		return nil, fmt.Errorf("assignment verification failed: %v", out.verify[0])
	}
	out.res = &aapsm.Result{Graph: cg, Detection: det}
	out.polygons = len(l.Features)
	return out, nil
}

// digest hashes the outputs every flow must reproduce exactly: the conflict
// edge list, the correction, the mask layout (or its inconsistency) and the
// DRC report.
func (o *flowOutcome) digest() ([32]byte, error) {
	h := sha256.New()
	for _, c := range o.res.Conflicts() {
		fmt.Fprintf(h, "conflict %d %d %d %d %d %d %d\n",
			c.Edge, c.Meta.Kind, c.Meta.S1, c.Meta.S2, c.Meta.Overlap, c.Meta.Feature, c.Deficit)
	}
	st := o.cor.Stats
	fmt.Fprintf(h, "correct %d %d %d %d\n", st.Cuts, st.Unfixable, st.AreaBefore, st.AreaAfter)
	if o.maskErr != nil {
		fmt.Fprintf(h, "mask %v\n", o.maskErr)
	} else if err := o.mask.WriteText(h); err != nil {
		return [32]byte{}, err
	}
	for _, v := range o.drc {
		fmt.Fprintf(h, "drc %s\n", v)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// reference is a workload's ground truth, built in set-up from a
// single-worker run and checked against the paper's claims.
type reference struct {
	digest       [32]byte
	conflicts    int
	areaIncrease float64
	polygons     int
	hierReused   int
}

// buildReference runs the single-worker flow and checks it: the assignment
// verifies, the corrected layout re-detects to zero conflicts (Theorem 1),
// and, for hierarchical input, the flattened read gives the same outputs.
func buildReference(ctx context.Context, in *flowInput) (*reference, error) {
	eng := aapsm.NewEngine(aapsm.WithParallelism(1))
	out, err := sessionFlow(ctx, eng, in.gds, in.readOpt)
	if err != nil {
		return nil, fmt.Errorf("reference flow: %w", err)
	}
	if v := out.assign.Verify(out.res.Graph); len(v) != 0 {
		return nil, fmt.Errorf("reference assignment does not verify: %v", v[0])
	}
	if n := len(out.cor.Plan.Unfixable); n != 0 {
		return nil, fmt.Errorf("reference correction left %d unfixable conflicts", n)
	}
	ref := &reference{
		conflicts:    len(out.res.Conflicts()),
		areaIncrease: out.cor.Stats.AreaIncrease,
		polygons:     out.polygons,
		hierReused:   out.res.Detection.Stats.HierReusedShards,
	}
	if ref.digest, err = out.digest(); err != nil {
		return nil, err
	}
	if ref.polygons != in.polygons {
		return nil, fmt.Errorf("read %d polygons, generated %d", ref.polygons, in.polygons)
	}
	// Each check below starts from a collected heap holding only what it
	// needs, so the checks never hold two flows at once and peak_rss_mb
	// stays a figure of the timed flows.
	corrected := out.cor.Layout
	runtime.GC()
	fixed, err := eng.NewSession(corrected).Detect(ctx)
	if err != nil {
		return nil, fmt.Errorf("re-detect corrected layout: %w", err)
	}
	if n := len(fixed.Conflicts()); n != 0 {
		return nil, fmt.Errorf("corrected layout re-detects %d conflicts, want 0 (Theorem 1)", n)
	}
	if in.flatCheck != nil {
		if ref.hierReused == 0 {
			return nil, errors.New("hierarchical read reused no cluster solves")
		}
		runtime.GC()
		flat, err := sessionFlow(ctx, eng, in.gds, *in.flatCheck)
		if err != nil {
			return nil, fmt.Errorf("flattened reference flow: %w", err)
		}
		d, err := flat.digest()
		if err != nil {
			return nil, err
		}
		if d != ref.digest {
			return nil, errors.New("hierarchical and flattened reads give different outputs")
		}
	}
	return ref, nil
}

// check compares one flow against the reference.
func (ref *reference) check(out *flowOutcome) error {
	d, err := out.digest()
	if err != nil {
		return err
	}
	if d != ref.digest {
		return fmt.Errorf("outputs differ from the reference (%d conflicts, want %d)", len(out.res.Conflicts()), ref.conflicts)
	}
	return nil
}

// flowWorkload drives flat_flow or hier_array.
func flowWorkload(ctx context.Context, cfg runConfig, in, canon *flowInput, rep *report) error {
	rep.env["polygons"] = in.polygons
	ref, err := buildReference(ctx, in)
	if err != nil {
		return err
	}
	workers := runtime.NumCPU()
	rep.env["workers"] = workers
	// Each timed flow starts from a collected heap, so no flow pays for the
	// garbage of the one before it.
	timed := func(eng *aapsm.Engine) (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		out, err := sessionFlow(ctx, eng, in.gds, in.readOpt)
		d := time.Since(t0)
		if err == nil {
			err = ref.check(out)
		}
		return d, err
	}

	// Set-up: a fresh engine's first flow, with the heap returned to the OS
	// beforehand so each repetition starts cold.
	var setup []float64
	for k := 0; k < setupReps; k++ {
		debug.FreeOSMemory()
		d, err := timed(aapsm.NewEngine(aapsm.WithParallelism(workers)))
		rep.op(err)
		setup = append(setup, sec(d))
	}
	rep.setup(setup)

	eng := aapsm.NewEngine(aapsm.WithParallelism(workers))
	if cfg.trace {
		plain, err := traceFlows(ctx, cfg.dur, eng, workers, in, ref, rep)
		rep.loadTail(plain)
		return err
	}
	q, err := sessionFlow(ctx, eng, canon.gds, canon.readOpt)
	rep.op(err)
	if err != nil {
		return err
	}
	rep.quality(len(q.res.Conflicts()), q.cor.Stats.AreaIncrease)
	rep.linef("seeded input: %d conflicts, %.4f %% area increase", ref.conflicts, ref.areaIncrease)

	var samples []float64
	start := time.Now()
	for time.Since(start) < cfg.dur {
		d, err := timed(eng)
		rep.op(err)
		if err == nil {
			samples = append(samples, ms(d))
		}
	}
	rep.flows(samples)
	return nil
}

// traceFlows alternates untraced Session flows with traced layer-by-layer
// flows until dur has passed and at least minTraced flows are traced,
// reports the per-layer metrics, and returns the untraced flow times in
// milliseconds.
func traceFlows(ctx context.Context, dur time.Duration, eng *aapsm.Engine, workers int, in *flowInput, ref *reference, rep *report) ([]float64, error) {
	const minTraced = 5
	rec := newRecorder()
	var (
		plain, traced, cross, solve []float64
		allocObj, allocBytes        []float64
		last                        *flowOutcome
	)
	start := time.Now()
	for i := 0; time.Since(start) < dur || len(traced) < minTraced; i++ {
		runtime.GC() // as before every timed flow
		if i%2 == 0 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			out, err := sessionFlow(ctx, eng, in.gds, in.readOpt)
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if err == nil {
				err = ref.check(out)
			}
			rep.op(err)
			if err != nil {
				return nil, err
			}
			plain = append(plain, ms(d))
			allocObj = append(allocObj, float64(m1.Mallocs-m0.Mallocs))
			allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
			continue
		}
		rec.flow = i
		t0 := time.Now()
		out, err := layeredFlow(ctx, rec, eng, workers, in.gds, in.readOpt)
		d := time.Since(t0)
		if err == nil {
			err = ref.check(out)
		}
		rep.op(err)
		if err != nil {
			return nil, err
		}
		traced = append(traced, sec(d))
		st := out.res.Detection.Stats
		cross = append(cross, sec(st.CrossTime))
		solve = append(solve, sec(st.PlanarTime+st.EmbedTime+st.MatchTime+st.RecheckTime))
		last = out
	}

	p := rep.perLayer
	for name, self := range rec.layerTimes() {
		if name == rootSpan {
			continue
		}
		xs := make([]float64, len(self))
		for i, d := range self {
			xs[i] = sec(d)
		}
		p[name+"_s"] = median(xs)
	}
	st := last.res.Detection.Stats
	p["core.detect.cross_s"] = median(cross)
	p["core.detect.solve_cpu_s"] = median(solve)
	p["core.shards"] = float64(st.Shards)
	p["core.largest_shard_edges"] = float64(st.LargestShardEdges)
	p["core.crossing_pairs"] = float64(st.CrossingPairs)
	p["core.graph_edges"] = float64(st.GraphEdges)
	p["core.gadget_edges"] = float64(st.GadgetEdges)
	reused, solved := float64(st.HierReusedShards), float64(st.HierSolvedShards)
	p["core.hier_clusters_reused"] = reused
	p["core.hier_clusters_solved"] = solved
	p["core.hier_reuse_ratio"] = ratio(reused, reused+solved)
	p["correct.cuts"] = float64(len(last.cor.Plan.Cuts))
	p["workload.polygons"] = float64(in.polygons)
	p["alloc.objects_per_polygon"] = median(allocObj) / float64(in.polygons)
	p["alloc.bytes_per_polygon"] = median(allocBytes) / float64(in.polygons)

	self, total := rec.uncovered()
	p["trace.uncovered_s"] = sec(self)
	p["trace.traced_s"] = sec(total)
	p["trace.uncovered_share"] = ratio(sec(self), sec(total))
	p["trace.traced_p50_s"] = median(traced)
	p["trace.untraced_p50_s"] = median(plain) / 1e3
	p["trace.overhead_share"] = ratio(median(traced), median(plain)/1e3) - 1
	p["trace.flows"] = float64(len(traced))

	path, err := rec.write(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", rep.cfg.workload, rep.cfg.seed))
	if err != nil {
		return nil, err
	}
	rep.linef("spans written to %s", path)
	return plain, nil
}
