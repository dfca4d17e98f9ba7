package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/planar"
	"repro/internal/tjoin"
)

// denseVariants are the (DenseClusterEvery, DenseClusterSize, StrapEvery)
// settings of the method differential, from the suite's default to one dense
// cluster per column and a strap after every row.
var denseVariants = [][3]int{{37, 3, 4}, {8, 6, 4}, {3, 12, 2}, {1, 40, 1}}

// methodCorpus is the layout corpus of TestTJoinMethodsAgree: suite designs
// d1–d3 and 3-row, 120-gate designs for seeds 1–25 at every dense variant.
func methodCorpus() []*layout.Layout {
	var out []*layout.Layout
	for _, d := range bench.SmallSuite(3) {
		out = append(out, bench.Generate(d.Name, d.Params))
	}
	for _, v := range denseVariants {
		for seed := int64(1); seed <= 25; seed++ {
			p := bench.DefaultParams(seed, 3, 120)
			p.DenseClusterEvery, p.DenseClusterSize, p.StrapEvery = v[0], v[1], v[2]
			out = append(out, bench.Generate(fmt.Sprintf("s%d-%d-%d-%d", seed, v[0], v[1], v[2]), p))
		}
	}
	return out
}

// withoutGadgetStats clears the counters that size a method's matching
// instance, the only part of a Detection the T-join method may change.
func withoutGadgetStats(d *Detection) *Detection {
	c := *d
	c.Stats.GadgetNodes, c.Stats.GadgetEdges = 0, 0
	return &c
}

// TestTJoinMethodsAgree requires the three T-join methods to give identical
// Detections, gadget statistics and timings aside, for both graph kinds,
// both recheck modes and worker counts 1, 2 and 4. With parallel dual edges
// collapsed before the solve, the lexicographic rescaling leaves each
// cluster a unique optimal join, so no method may pick different edges.
// Layouts run as parallel subtests.
func TestTJoinMethodsAgree(t *testing.T) {
	ctx := context.Background()
	methods := []tjoin.Method{tjoin.MethodGeneralizedGadget, tjoin.MethodOptimizedGadget, tjoin.MethodLawler}
	for _, l := range methodCorpus() {
		t.Run(l.Name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range []GraphKind{PCG, FG} {
				cg, err := BuildGraph(l, rules(), kind)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []RecheckMode{RecheckColoring, RecheckParity} {
					var ref *Detection
					for _, m := range methods {
						for _, w := range []int{1, 2, 4} {
							tag := fmt.Sprintf("%v/recheck=%d/method=%d/workers=%d", kind, mode, m, w)
							det, err := DetectContext(ctx, cg, Options{TJoin: tjoin.Options{Method: m}, Recheck: mode, Workers: w})
							if err != nil {
								t.Fatalf("%s: %v", tag, err)
							}
							if ref == nil {
								ref = det
								continue
							}
							if !slices.Equal(ref.CrossingsRemoved, det.CrossingsRemoved) {
								t.Fatalf("%s: CrossingsRemoved order differs", tag)
							}
							detectionsEqual(t, tag, withoutGadgetStats(ref), withoutGadgetStats(det))
						}
					}
				}
			}
		})
	}
}

// shardResultsEqual requires two results of one cluster to agree in every
// field but the stage durations and the store key.
func shardResultsEqual(t *testing.T, tag string, full, fast *shardResult) {
	t.Helper()
	if !slices.Equal(full.removed, fast.removed) || !slices.Equal(full.bipart, fast.bipart) || !slices.Equal(full.final, fast.final) {
		t.Fatalf("%s: edge sets differ:\nfull %v %v %v\nfast %v %v %v", tag,
			full.removed, full.bipart, full.final, fast.removed, fast.bipart, fast.final)
	}
	type counts struct{ dualNodes, dualEdges, oddFaces, gadgetNodes, gadgetEdges int }
	f := counts{full.dualNodes, full.dualEdges, full.oddFaces, full.gadgetNodes, full.gadgetEdges}
	g := counts{fast.dualNodes, fast.dualEdges, fast.oddFaces, fast.gadgetNodes, fast.gadgetEdges}
	if f != g {
		t.Fatalf("%s: counts differ: full %+v, fast %+v", tag, f, g)
	}
}

// fastPathOracle solves every cluster of cg with and without the bipartite
// fast path and requires equal results, returning how many clusters the
// fast path settles (those whose full-path dual has no odd face).
func fastPathOracle(t *testing.T, tag string, cg *ConflictGraph, opt Options) int {
	t.Helper()
	ctx := context.Background()
	crossPairs := cg.Drawing.Crossings(1)
	g := cg.Drawing.G
	labels, n := conflictClusters(g, crossPairs)
	parts, localOf := g.Partition(labels, n)
	localEdge := make([]int, g.M())
	for _, p := range parts {
		for le, ge := range p.Edges {
			localEdge[ge] = le
		}
	}
	pairs := make([][][2]int, n)
	for _, p := range crossPairs {
		c := labels[g.Edge(p[0]).U]
		pairs[c] = append(pairs[c], [2]int{localEdge[p[0]], localEdge[p[1]]})
	}
	even := 0
	for c, p := range parts {
		if len(p.Edges) == 0 {
			continue
		}
		full, err := detectShard(ctx, cg.Drawing.Induce(p, localOf), pairs[c], opt, false)
		if err != nil {
			t.Fatalf("%s: cluster %d full: %v", tag, c, err)
		}
		fast, err := detectShard(ctx, cg.Drawing.Induce(p, localOf), pairs[c], opt, true)
		if err != nil {
			t.Fatalf("%s: cluster %d fast: %v", tag, c, err)
		}
		if full.oddFaces == 0 {
			even++
		}
		shardResultsEqual(t, fmt.Sprintf("%s: cluster %d", tag, c), full, fast)
	}
	return even
}

// TestFastPathMatchesFullPath is the per-cluster oracle of the bipartite
// fast path: on suite designs d1–d3 and one seed of every dense variant,
// both graph kinds and both recheck modes, every cluster's result, dual
// statistics included, equals the one the embedding, dual and T-join give.
func TestFastPathMatchesFullPath(t *testing.T) {
	var layouts []*layout.Layout
	for _, d := range bench.SmallSuite(3) {
		layouts = append(layouts, bench.Generate(d.Name, d.Params))
	}
	for _, v := range denseVariants {
		p := bench.DefaultParams(7, 3, 120)
		p.DenseClusterEvery, p.DenseClusterSize, p.StrapEvery = v[0], v[1], v[2]
		layouts = append(layouts, bench.Generate(fmt.Sprintf("s7-%d-%d-%d", v[0], v[1], v[2]), p))
	}
	for _, l := range layouts {
		for _, kind := range []GraphKind{PCG, FG} {
			cg, err := BuildGraph(l, rules(), kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []RecheckMode{RecheckColoring, RecheckParity} {
				tag := fmt.Sprintf("%s/%v/recheck=%d", l.Name, kind, mode)
				if even := fastPathOracle(t, tag, cg, Options{Recheck: mode}); even == 0 {
					t.Fatalf("%s: no cluster takes the fast path", tag)
				}
			}
		}
	}
}

// TestFastPathDisconnectedRemainder pins the Euler count on a cluster whose
// planarized remainder falls apart. Squares A and B overlap, so A's right
// and top sides cross B's bottom and left sides, and a lone edge X crosses
// B's bottom side too; A's two crossing sides and X are the cheap edges, so
// planarization removes all three. What remains is A's two-edge path, the
// intact square B and three isolated nodes (A's corner and X's ends): 6
// edges, and the tracer gives the path one face and the square two, so 3
// faces. One outer face for the whole drawing (E-V+1+C) would give 2, and
// counting the isolated nodes as components would give 6.
func TestFastPathDisconnectedRemainder(t *testing.T) {
	g := graph.New(10)
	pos := []geom.Point{
		// square A: edges 0 bottom, 1 right, 2 top, 3 left
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(0, 100),
		// square B: edges 4 bottom, 5 right, 6 top, 7 left
		geom.Pt(50, 50), geom.Pt(150, 50), geom.Pt(150, 150), geom.Pt(50, 150),
		// lone edge X: edge 8, crossing B's bottom side
		geom.Pt(120, 20), geom.Pt(120, 80),
	}
	for i := 0; i < 4; i++ {
		w := int64(10)
		if i == 1 || i == 2 {
			w = 1
		}
		g.AddEdge(i, (i+1)%4, w)
	}
	for i := 0; i < 4; i++ {
		g.AddEdge(4+i, 4+(i+1)%4, 10)
	}
	g.AddEdge(8, 9, 1)
	d := planar.NewDrawing(g, pos)
	pairs := d.Crossings(1)
	for _, mode := range []RecheckMode{RecheckColoring, RecheckParity} {
		opt := Options{Recheck: mode}
		full, err := detectShard(context.Background(), d, pairs, opt, false)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := detectShard(context.Background(), d, pairs, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Sorted(slices.Values(fast.removed)); !slices.Equal(got, []int{1, 2, 8}) {
			t.Fatalf("removed %v, want A's sides 1 and 2 and X 8", got)
		}
		if full.dualNodes != 3 || full.dualEdges != 6 || full.oddFaces != 0 {
			t.Fatalf("full path dual %d nodes, %d edges, %d odd faces; want 3, 6, 0",
				full.dualNodes, full.dualEdges, full.oddFaces)
		}
		shardResultsEqual(t, fmt.Sprintf("recheck=%d", mode), full, fast)
	}
}
