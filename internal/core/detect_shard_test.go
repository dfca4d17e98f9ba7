package core

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/bench"
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
	removed = cg.Drawing.Planarize()
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
