package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/planar"
	"repro/internal/tjoin"
)

// shardGrid is the seeded generator grid used by the sharding equivalence
// tests: small enough to run in CI, varied enough to cover many clusters,
// crossings, straps and dense groups.
func shardGrid() []bench.Design {
	return []bench.Design{
		{Name: "g1", Params: bench.DefaultParams(201, 2, 40)},
		{Name: "g2", Params: bench.DefaultParams(202, 3, 60)},
		{Name: "g3", Params: bench.DefaultParams(203, 4, 90)},
	}
}

func detectionsEqual(t *testing.T, tag string, a, b *Detection) {
	t.Helper()
	intsEq := func(what string, x, y []int) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d != %d", tag, what, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: %s differ at %d: %d != %d", tag, what, i, x[i], y[i])
			}
		}
	}
	// CrossingsRemoved order is deterministic but shard-concatenated;
	// compare as sets.
	ar := append([]int(nil), a.CrossingsRemoved...)
	br := append([]int(nil), b.CrossingsRemoved...)
	sort.Ints(ar)
	sort.Ints(br)
	intsEq("CrossingsRemoved", ar, br)
	intsEq("BipartizationEdges", a.BipartizationEdges, b.BipartizationEdges)
	ac := make([]int, len(a.FinalConflicts))
	bc := make([]int, len(b.FinalConflicts))
	for i, c := range a.FinalConflicts {
		ac[i] = c.Edge
	}
	for i, c := range b.FinalConflicts {
		bc[i] = c.Edge
	}
	intsEq("FinalConflicts", ac, bc)
	if as, bs := zeroDurations(a.Stats), zeroDurations(b.Stats); as != bs {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", tag, as, bs)
	}
}

// zeroDurations clears the timing fields of a Stats block, leaving every
// counter for comparison.
func zeroDurations(s Stats) Stats {
	s.CrossTime, s.PlanarTime, s.EmbedTime = 0, 0, 0
	s.MatchTime, s.RecheckTime, s.TotalTime = 0, 0, 0
	return s
}

// unsharedDetect is the oracle for detect's solve sharing: it partitions cg
// into the same conflict clusters, solves every cluster with detectShard on
// its own, identical or not, and merges the results with mergeShards. A
// clusterSignature that missed one of detectShard's inputs would let detect
// hand some cluster a wrong result, which this oracle does not.
func unsharedDetect(t *testing.T, cg *ConflictGraph, opt Options) *Detection {
	t.Helper()
	det := &Detection{Graph: cg}
	det.Stats.GraphNodes = cg.Nodes()
	det.Stats.GraphEdges = cg.Edges()
	crossPairs := cg.Drawing.Crossings(1)
	det.Stats.CrossingPairs = len(crossPairs)
	labels, nShards := conflictClusters(cg.Drawing.G, crossPairs)
	parts, localOf := cg.Drawing.G.Partition(labels, nShards)
	localEdge := make([]int, cg.Edges())
	for _, p := range parts {
		for le, ge := range p.Edges {
			localEdge[ge] = le
		}
	}
	pairs := make([][][2]int, nShards)
	for _, p := range crossPairs {
		c := labels[cg.Drawing.G.Edge(p[0]).U]
		pairs[c] = append(pairs[c], [2]int{localEdge[p[0]], localEdge[p[1]]})
	}
	all := make([]bool, nShards)
	results := make([]*shardResult, nShards)
	for c, p := range parts {
		if len(p.Edges) == 0 {
			continue
		}
		all[c] = true
		det.Stats.Shards++
		det.Stats.LargestShardEdges = max(det.Stats.LargestShardEdges, len(p.Edges))
		r, err := detectShard(context.Background(), cg.Drawing.Induce(p, localOf), pairs[c], opt, true)
		if err != nil {
			t.Fatalf("cluster %d: %v", c, err)
		}
		results[c] = r
	}
	if err := mergeShards(det, cg, parts, results, all); err != nil {
		t.Fatal(err)
	}
	return det
}

// assertMatchesUnshared requires det, from DetectContext, to equal the
// unshared oracle on the same graph in every conflict set and counter but
// the two that tally the sharing, and returns det's reuse count.
func assertMatchesUnshared(t *testing.T, tag string, cg *ConflictGraph, det *Detection, opt Options) int {
	t.Helper()
	shared := *det
	reused := shared.Stats.HierReusedShards
	shared.Stats.HierReusedShards, shared.Stats.HierSolvedShards = 0, 0
	detectionsEqual(t, tag+"/unshared", unsharedDetect(t, cg, opt), &shared)
	return reused
}

// TestSharedSolveByContent pins the solve-sharing rule on a flat layout: a
// cluster and its translated copy share one solve, while a copy with one
// feature moved by 10 nm, or with one edge weight raised, solves on its own.
// Pitch-500 wires fuse into one cluster; copies 100 000 apart stay separate.
func TestSharedSolveByContent(t *testing.T) {
	copied := []geom.Rect{geom.R(100_000, 0, 100_100, 1000), geom.R(100_500, 0, 100_600, 1000)}
	cases := []struct {
		name           string
		copy           []geom.Rect
		reweigh        bool // raise the weight of one edge of the copy
		reused, solved int
	}{
		{"translated copy", copied, false, 1, 1},
		{"one feature moved 10 nm", []geom.Rect{geom.R(100_000, 0, 100_100, 1000), geom.R(100_500, 10, 100_600, 1010)}, false, 0, 0},
		{"one edge reweighted", copied, true, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := wireLayout(tc.name, 0, 500)
			for _, r := range tc.copy {
				l.Add(r)
			}
			cg, err := BuildGraph(l, rules(), PCG)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reweigh {
				edges := cg.Drawing.G.Edges()
				e := slices.IndexFunc(edges, func(e graph.Edge) bool { return cg.Drawing.Pos[e.U].X >= 100_000 })
				edges[e].Weight++
			}
			det, err := DetectContext(context.Background(), cg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := det.Stats
			if st.Shards != 2 || st.HierReusedShards != tc.reused || st.HierSolvedShards != tc.solved {
				t.Fatalf("shards/reused/solved = %d/%d/%d, want 2/%d/%d",
					st.Shards, st.HierReusedShards, st.HierSolvedShards, tc.reused, tc.solved)
			}
			assertMatchesUnshared(t, tc.name, cg, det, Options{})
		})
	}
}

// TestSharedSolveMatchesUnshared checks detect against the unshared oracle
// on the generator grid, both graph kinds and both recheck modes.
func TestSharedSolveMatchesUnshared(t *testing.T) {
	for _, d := range shardGrid() {
		l := bench.Generate(d.Name, d.Params)
		for _, kind := range []GraphKind{PCG, FG} {
			for _, mode := range []RecheckMode{RecheckColoring, RecheckParity} {
				opt := Options{Recheck: mode, Workers: 2}
				cg, err := BuildGraph(l, rules(), kind)
				if err != nil {
					t.Fatal(err)
				}
				det, err := DetectContext(context.Background(), cg, opt)
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesUnshared(t, fmt.Sprintf("%s/%v/%d", d.Name, kind, mode), cg, det, opt)
			}
		}
	}
}

// TestShardedDetectionWorkerEquivalence asserts the tentpole invariant: the
// sharded flow is bit-identical in conflict sets and stat counts for any
// worker count, across the generator grid, both graph kinds and both
// recheck modes.
func TestShardedDetectionWorkerEquivalence(t *testing.T) {
	workerCounts := []int{1, 2, 4, runtime.NumCPU()}
	for _, d := range shardGrid() {
		l := bench.Generate(d.Name, d.Params)
		for _, kind := range []GraphKind{PCG, FG} {
			for _, mode := range []RecheckMode{RecheckColoring, RecheckParity} {
				var ref *Detection
				for _, w := range workerCounts {
					cg, err := BuildGraph(l, rules(), kind)
					if err != nil {
						t.Fatal(err)
					}
					det, err := DetectContext(context.Background(), cg, Options{Recheck: mode, Workers: w})
					if err != nil {
						t.Fatalf("%s/%v workers=%d: %v", d.Name, kind, w, err)
					}
					if det.Stats.Shards < 2 {
						t.Fatalf("%s/%v: expected multiple conflict clusters, got %d",
							d.Name, kind, det.Stats.Shards)
					}
					if ref == nil {
						ref = det
						continue
					}
					detectionsEqual(t, d.Name+"/"+kind.String(), ref, det)
				}
			}
		}
	}
}

// unshardedReference reruns the flow the pre-sharding way — one global
// planarization, one embedding of the whole drawing (shared outer face), one
// dual T-join, one global recheck — as an independent oracle for the merge.
func unshardedReference(t *testing.T, cg *ConflictGraph, mode RecheckMode) (removed, bipart, final []int) {
	t.Helper()
	removed = cg.Drawing.PlanarizeGiven(cg.Drawing.Crossings(1))
	removedSet := make([]bool, cg.Drawing.G.M())
	for _, e := range removed {
		removedSet[e] = true
	}
	pd, oldIdx := cg.Drawing.WithoutEdgeSet(removedSet)
	em, err := planar.BuildEmbedding(pd)
	if err != nil {
		t.Fatal(err)
	}
	dual, primalOf, T := em.Dual()
	// Mirror the flow's lexicographic (weight, count) rescaling so count
	// comparisons are meaningful (see lexScaleLimit).
	scaleK := int64(dual.M()) + 1
	edges := dual.Edges()
	for i := range edges {
		edges[i].Weight = edges[i].Weight*scaleK + 1
	}
	join, err := tjoin.SolveContext(context.Background(), dual, T, tjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bipartSet := make([]bool, cg.Drawing.G.M())
	for _, de := range join.Edges {
		orig := oldIdx[primalOf[de]]
		bipart = append(bipart, orig)
		bipartSet[orig] = true
	}
	sort.Ints(bipart)
	final, err = recheck(cg.Drawing.G, removed, removedSet, bipartSet, mode)
	if err != nil {
		t.Fatal(err)
	}
	return removed, bipart, final
}

// TestShardedMatchesUnshardedReference cross-validates the sharded flow
// against the monolithic single-embedding flow: the removed crossing set
// must be identical, and the bipartization/final conflict sets must agree
// in count and total weight (the optima are tie-free in count thanks to the
// lexicographic rescaling; the chosen edge sets may legitimately differ
// between one global dual and per-cluster duals).
func TestShardedMatchesUnshardedReference(t *testing.T) {
	for _, d := range shardGrid() {
		l := bench.Generate(d.Name, d.Params)
		for _, mode := range []RecheckMode{RecheckColoring, RecheckParity} {
			cg, err := BuildGraph(l, rules(), PCG)
			if err != nil {
				t.Fatal(err)
			}
			det, err := DetectContext(context.Background(), cg, Options{Recheck: mode, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			cg2, err := BuildGraph(l, rules(), PCG)
			if err != nil {
				t.Fatal(err)
			}
			removed, bipart, final := unshardedReference(t, cg2, mode)

			g := cg.Drawing.G
			gotRemoved := append([]int(nil), det.CrossingsRemoved...)
			sort.Ints(gotRemoved)
			wantRemoved := append([]int(nil), removed...)
			sort.Ints(wantRemoved)
			if len(gotRemoved) != len(wantRemoved) {
				t.Fatalf("%s: removed %d != %d", d.Name, len(gotRemoved), len(wantRemoved))
			}
			for i := range gotRemoved {
				if gotRemoved[i] != wantRemoved[i] {
					t.Fatalf("%s: removed sets differ at %d", d.Name, i)
				}
			}
			if len(det.BipartizationEdges) != len(bipart) {
				t.Fatalf("%s: bipartization count %d != %d",
					d.Name, len(det.BipartizationEdges), len(bipart))
			}
			if wg, ww := g.TotalWeight(det.BipartizationEdges), g.TotalWeight(bipart); wg != ww {
				t.Fatalf("%s: bipartization weight %d != %d", d.Name, wg, ww)
			}
			if len(det.FinalConflicts) != len(final) {
				t.Fatalf("%s: conflict count %d != %d",
					d.Name, len(det.FinalConflicts), len(final))
			}
			var wGot, wWant int64
			for _, c := range det.FinalConflicts {
				wGot += g.Edge(c.Edge).Weight
			}
			for _, e := range final {
				wWant += cg2.Drawing.G.Edge(e).Weight
			}
			if wGot != wWant {
				t.Fatalf("%s: conflict weight %d != %d", d.Name, wGot, wWant)
			}
		}
	}
}

// TestDetectParallelRace exercises the per-cluster worker pool under the
// race detector: many goroutines running parallel detections that share
// nothing but the solver pools.
func TestDetectParallelRace(t *testing.T) {
	d := shardGrid()[1]
	l := bench.Generate(d.Name, d.Params)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cg, err := BuildGraph(l, rules(), PCG)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := DetectContext(context.Background(), cg, Options{Workers: runtime.NumCPU()}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestDetectCancelledContext verifies prompt cancellation through the
// sharded pool.
func TestDetectCancelledContext(t *testing.T) {
	d := shardGrid()[0]
	l := bench.Generate(d.Name, d.Params)
	cg, err := BuildGraph(l, rules(), PCG)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		if _, err := DetectContext(ctx, cg, Options{Workers: w}); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
	}
}
