package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/shifter"
)

// tiledHierLayout places n copies of base side by side, each tagged as one
// placement of a single cell in a hierarchy sidecar. Every copy after the
// first also adds an untagged top-level copy of base's first feature half a
// pitch back, inside the previous copy, so some clusters mix top-level and
// placed geometry. Detection never reads the sidecar; the repeated copies
// are what let identical clusters share a solve.
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

// TestDetectEntryPointsAgree checks the ways into the one cluster
// solve-and-merge routine against each other: a from-scratch DetectContext,
// an Incremental engine's first Detect, and RestoreIncremental, which
// re-enters the Detect body seeded with the exported crossing pairs and
// cluster results. Conflict sets and every Stats counter — the
// shared-solve and reuse tallies included — must be equal, and
// DetectContext must match the unshared oracle.
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
				if reused := assertMatchesUnshared(t, tag, cg, want, opt); l.Hier != nil && reused == 0 {
					t.Fatalf("%s: tiled layout shares no solve: %+v", tag, want.Stats)
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

				restored, err := RestoreIncremental(ctx, inc.ExportState(), rules(), kind, opt)
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

// mixedEditSteps drives an Incremental through seeded add, move and delete
// edits that add and resize features across the critical-width threshold,
// so non-critical features sit between the flanked ones, and hands visit
// the detection after each of its eight steps.
func mixedEditSteps(t *testing.T, seed int64, visit func(tag string, inc *Incremental, det *Detection)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := shardGrid()[seed%2]
	l := bench.Generate(d.Name, d.Params)
	// A wide, non-critical feature in the middle of the feature order.
	l.Features = slices.Insert(l.Features, len(l.Features)/2, layout.Feature{Rect: geom.R(0, -5000, 400, -3000)})
	inc, err := NewIncremental(l, rules(), PCG, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	randRect := func() geom.Rect {
		x, y := rng.Int63n(20000), rng.Int63n(4000)
		w, n := 80+rng.Int63n(200), 300+rng.Int63n(1500) // critical below 150
		if rng.Intn(2) == 0 {
			return geom.R(x, y, x+w, y+n)
		}
		return geom.R(x, y, x+n, y+w)
	}
	for step := 0; step < 8; step++ {
		for op := 0; op < 1+rng.Intn(4); op++ {
			nf := len(inc.Layout().Features)
			switch k := rng.Intn(3); {
			case k == 0 || nf < 2:
				inc.AddFeature(randRect(), 0)
			case k == 1:
				if err := inc.MoveFeature(rng.Intn(nf), randRect()); err != nil {
					t.Fatal(err)
				}
			default:
				if err := inc.DeleteFeature(rng.Intn(nf)); err != nil {
					t.Fatal(err)
				}
			}
		}
		det, err := inc.Detect(context.Background())
		if err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		visit(fmt.Sprintf("seed %d step %d", seed, step), inc, det)
	}
}

// TestIncrementalSetPairLayout: the shifter set an Incremental rebuilds after
// seeded add, move and delete edits keeps the pair layout Assignment.Verify
// and mask.Validate walk — Shifters[2k] and Shifters[2k+1] are the LowSide
// and HighSide flanks of one critical feature, and features ascend — and
// matches shifter.Generate on the edited layout.
func TestIncrementalSetPairLayout(t *testing.T) {
	r := rules()
	for seed := int64(0); seed < 6; seed++ {
		mixed := 0 // steps whose layout holds a non-critical feature
		mixedEditSteps(t, seed, func(tag string, inc *Incremental, det *Detection) {
			set := det.Graph.Set
			prev, critical := -1, 0
			for _, f := range inc.Layout().Features {
				if r.IsCritical(f) {
					critical++
				}
			}
			if len(set.Shifters) != 2*critical {
				t.Fatalf("%s: %d shifters for %d critical features", tag, len(set.Shifters), critical)
			}
			if critical < len(inc.Layout().Features) {
				mixed++
			}
			for k := 0; k < len(set.Shifters); k += 2 {
				lo, hi := set.Shifters[k], set.Shifters[k+1]
				if lo.Side != shifter.LowSide || hi.Side != shifter.HighSide || lo.Feature != hi.Feature ||
					lo.Feature <= prev || !r.IsCritical(inc.Layout().Features[lo.Feature]) {
					t.Fatalf("%s: pair %d breaks the layout: %v %v", tag, k/2, lo, hi)
				}
				prev = lo.Feature
			}
			want, err := shifter.Generate(inc.Layout(), r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(set.Shifters, want.Shifters) {
				t.Fatalf("%s: rebuilt shifters differ from shifter.Generate", tag)
			}
		})
		if mixed == 0 {
			t.Fatalf("seed %d: no step had a non-critical feature", seed)
		}
	}
}

// TestShifterSlotIsGraphNode pins the invariant that lets the conflict graph
// and phase assignment do without a shifter-to-node map: graph node i is
// drawn at shifter i's claimed center, every feature edge joins nodes 2k and
// 2k+1 and names shifters 2k and 2k+1 and their feature, and AssignPhases
// gives shifter i the color of node i. It runs on d1–d3, from scratch, and
// on the seeded edit sessions of TestIncrementalSetPairLayout.
func TestShifterSlotIsGraphNode(t *testing.T) {
	check := func(tag string, det *Detection) {
		t.Helper()
		cg := det.Graph
		sh := cg.Set.Shifters
		reg := newPosRegistry(len(sh))
		for i, s := range sh {
			if want := reg.claim(s.Center()); cg.Drawing.Pos[i] != want {
				t.Fatalf("%s: node %d at %v, shifter %d claims %v", tag, i, cg.Drawing.Pos[i], i, want)
			}
		}
		features := 0
		for e, m := range cg.Meta {
			if m.Kind != FeatureEdge {
				continue
			}
			k := 2 * features
			features++
			ed := cg.Drawing.G.Edge(e)
			want := EdgeMeta{Kind: FeatureEdge, S1: k, S2: k + 1, Feature: sh[k].Feature, Overlap: -1}
			if ed.U != k || ed.V != k+1 || m != want {
				t.Fatalf("%s: feature edge %d joins %d-%d with %+v, want %d-%d with %+v", tag, e, ed.U, ed.V, m, k, k+1, want)
			}
		}
		if 2*features != len(sh) {
			t.Fatalf("%s: %d feature edges for %d shifters", tag, features, len(sh))
		}
		a, err := AssignPhases(det)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		colors, ok := cg.Drawing.G.VerifyBipartition(det.ConflictEdgeSet())
		if !ok {
			t.Fatalf("%s: conflict set leaves the graph non-bipartite", tag)
		}
		for i := range sh {
			if int8(a.Phases[i]) != colors[i] {
				t.Fatalf("%s: shifter %d has phase %v, node %d color %d", tag, i, a.Phases[i], i, colors[i])
			}
		}
	}
	for _, d := range bench.Suite()[:3] {
		cg, err := BuildGraph(bench.Generate(d.Name, d.Params), rules(), PCG)
		if err != nil {
			t.Fatal(err)
		}
		det, err := DetectContext(context.Background(), cg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		check(d.Name, det)
	}
	for seed := int64(0); seed < 6; seed++ {
		mixedEditSteps(t, seed, func(tag string, _ *Incremental, det *Detection) { check(tag, det) })
	}
}

// TestPanickingSolveStoresNothing: a re-detect whose solve panics fails with
// ErrPanic and commits nothing, so the result store keeps no half-built
// entry. The next Detect on the same engine re-solves the edited cluster and
// equals DetectContext on a scratch build of the edited layout.
func TestPanickingSolveStoresNothing(t *testing.T) {
	ctx := context.Background()
	d := shardGrid()[0]
	inc, err := NewIncremental(bench.Generate(d.Name, d.Params), rules(), PCG, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Detect(ctx); err != nil {
		t.Fatal(err)
	}
	mid := len(inc.Layout().Features) / 2
	if err := inc.MoveFeature(mid, inc.Layout().Features[mid].Rect.Translate(geom.Point{X: 10})); err != nil {
		t.Fatal(err)
	}

	hook := func() { panic("poisoned cluster") }
	FaultHook.Store(&hook)
	_, err = inc.Detect(ctx)
	FaultHook.Store(nil)
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("detect under a panicking solve: got %v, want ErrPanic", err)
	}

	before := inc.Stats()
	got, err := inc.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if solved := inc.Stats().ShardsSolved - before.ShardsSolved; solved < 1 {
		t.Fatalf("re-detect after the panic solved %d clusters, want the edited one", solved)
	}
	cg, err := BuildGraph(inc.Layout(), rules(), PCG)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DetectContext(ctx, cg, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The scratch run shares solves where the re-detect reads the store, so
	// the reuse tallies differ; every conflict set and size counter agrees.
	got.Stats.ReusedShards, got.Stats.HierReusedShards, got.Stats.HierSolvedShards = 0, 0, 0
	want.Stats.HierReusedShards, want.Stats.HierSolvedShards = 0, 0
	detectionsEqual(t, "after the panic", want, got)
	if !slices.Equal(got.CrossingsRemoved, want.CrossingsRemoved) || !slices.Equal(got.FinalConflicts, want.FinalConflicts) {
		t.Fatal("after the panic: removal order or conflict metadata differs from a scratch detect")
	}
	if st := inc.Stats(); st.FallbackDirty != 0 {
		t.Fatalf("fallback invariants fired: %+v", st)
	}
}

// TestSurvivorMismatchSweepsAndReadsStore: when survivor matching fails, a
// re-detect sweeps every crossing pair instead of patching them, counts one
// FallbackDirty, and still takes every unchanged cluster from the store, so
// only the edited cluster is solved and the result equals a scratch detect.
func TestSurvivorMismatchSweepsAndReadsStore(t *testing.T) {
	ctx := context.Background()
	d := shardGrid()[0]
	inc, err := NewIncremental(bench.Generate(d.Name, d.Params), rules(), PCG, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Detect(ctx); err != nil {
		t.Fatal(err)
	}
	mid := len(inc.Layout().Features) / 2
	if err := inc.MoveFeature(mid, inc.Layout().Features[mid].Rect.Translate(geom.Point{X: 10})); err != nil {
		t.Fatal(err)
	}
	// Rename the previous generation's last edge so no edge of the edited
	// layout matches it.
	keys := inc.prev.edgeKeys
	keys[len(keys)-1].uidA = inc.nextUID
	before := inc.Stats()
	got, err := inc.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.FallbackDirty != before.FallbackDirty+1 {
		t.Fatalf("FallbackDirty %d -> %d, want one fallback", before.FallbackDirty, st.FallbackDirty)
	}
	if solved := st.ShardsSolved - before.ShardsSolved; solved != 1 || got.Stats.ReusedShards != got.Stats.Shards-1 {
		t.Fatalf("solved %d and reused %d of %d clusters, want only the edited one solved", solved, got.Stats.ReusedShards, got.Stats.Shards)
	}
	cg, err := BuildGraph(inc.Layout(), rules(), PCG)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DetectContext(ctx, cg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got.Stats.ReusedShards, got.Stats.HierReusedShards, got.Stats.HierSolvedShards = 0, 0, 0
	want.Stats.HierReusedShards, want.Stats.HierSolvedShards = 0, 0
	detectionsEqual(t, "after the fallback", want, got)
}
