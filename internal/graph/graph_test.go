package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0, 1)
	return g
}

func TestBasics(t *testing.T) {
	g := New(3)
	if g.N() != 3 || g.M() != 0 {
		t.Fatal("empty graph counts")
	}
	e0 := g.AddEdge(0, 1, 5)
	e1 := g.AddEdge(1, 2, 7)
	if e0 != 0 || e1 != 1 {
		t.Fatal("edge indices")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Error("degrees")
	}
	id := g.AddNode()
	if id != 3 || g.N() != 4 {
		t.Error("AddNode")
	}
	g.AddEdge(3, 3, 2) // self loop
	if g.Degree(3) != 2 {
		t.Errorf("self loop degree = %d, want 2", g.Degree(3))
	}
	if g.TotalWeight([]int{0, 1}) != 12 {
		t.Error("TotalWeight")
	}
	c := g.Clone()
	c.AddEdge(0, 2, 1)
	if g.M() == c.M() {
		t.Error("clone not independent")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	comp, n := g.Components()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Error("3,4 separate component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("5 isolated")
	}
}

func TestTwoColor(t *testing.T) {
	if _, ok := cycle(4).TwoColor(); !ok {
		t.Error("even cycle should be bipartite")
	}
	if _, ok := cycle(5).TwoColor(); ok {
		t.Error("odd cycle should not be bipartite")
	}
	colors, ok := path(4).TwoColor()
	if !ok {
		t.Fatal("path bipartite")
	}
	for i := 0; i+1 < 4; i++ {
		if colors[i] == colors[i+1] {
			t.Error("adjacent same color")
		}
	}
	// Self loop.
	g := New(1)
	g.AddEdge(0, 0, 1)
	if g.IsBipartite() {
		t.Error("self loop should break bipartiteness")
	}
	// Parallel edges keep bipartiteness.
	h := New(2)
	h.AddEdge(0, 1, 1)
	h.AddEdge(0, 1, 2)
	if !h.IsBipartite() {
		t.Error("parallel edges are fine")
	}
}

func TestSubgraphWithoutEdges(t *testing.T) {
	g := cycle(5)
	sub, oldIdx := g.SubgraphWithoutEdgeSet([]bool{2: true})
	if sub.M() != 4 {
		t.Fatalf("subgraph edges = %d", sub.M())
	}
	if !sub.IsBipartite() {
		t.Error("odd cycle minus an edge should be bipartite")
	}
	for newI, oldI := range oldIdx {
		if g.Edge(oldI) != sub.Edge(newI) {
			t.Error("edge mapping broken")
		}
	}
	if _, ok := g.VerifyBipartition(map[int]bool{2: true}); !ok {
		t.Error("VerifyBipartition")
	}
	if _, ok := g.VerifyBipartition(nil); ok {
		t.Error("VerifyBipartition on intact odd cycle should fail")
	}
}

func TestParityUF(t *testing.T) {
	uf := NewParityUF(4)
	if !uf.UnionDiffer(0, 1) || !uf.UnionDiffer(1, 2) {
		t.Fatal("chain unions should succeed")
	}
	// 0 and 2 are now constrained equal.
	if same, eq := uf.SameSet(0, 2); !same || !eq {
		t.Error("0 and 2 should be same-color")
	}
	if same, eq := uf.SameSet(0, 1); !same || eq {
		t.Error("0 and 1 should be different-color")
	}
	if uf.UnionDiffer(0, 2) {
		t.Error("forcing 0 != 2 should fail (odd triangle)")
	}
	if !uf.UnionDiffer(0, 3) {
		t.Error("fresh union should succeed")
	}
	if same, _ := uf.SameSet(3, 2); !same {
		t.Error("all connected now")
	}
}

func TestGreedyBipartization(t *testing.T) {
	// Odd cycle with one light edge: greedy keeps heavy edges, rejects the
	// last edge that would close the odd cycle (the lightest).
	g := New(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 0, 1)
	conf := GreedyBipartization(g)
	if len(conf) != 1 || conf[0] != 2 {
		t.Fatalf("conflicts = %v, want [2]", conf)
	}
	removed := map[int]bool{}
	for _, c := range conf {
		removed[c] = true
	}
	if _, ok := g.VerifyBipartition(removed); !ok {
		t.Error("greedy result must be bipartite")
	}
	// Even cycle: nothing rejected.
	if got := GreedyBipartization(cycle(6)); len(got) != 0 {
		t.Errorf("even cycle conflicts = %v", got)
	}
}

func TestGreedyBipartizationAlwaysBipartite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		n := rng.Intn(15) + 2
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddEdge(u, v, int64(rng.Intn(50)+1))
		}
		removed := map[int]bool{}
		for _, c := range GreedyBipartization(g) {
			removed[c] = true
		}
		_, ok := g.VerifyBipartition(removed)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSortedEdgeIndices(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 9)
	g.AddEdge(2, 0, 2)
	idx := g.SortedEdgeIndicesByWeightDesc()
	if idx[0] != 1 || idx[1] != 0 || idx[2] != 2 {
		t.Errorf("order = %v", idx)
	}
}

func TestInducedComponents(t *testing.T) {
	// Two components plus an isolated node, with a parallel edge and a
	// self-loop to exercise multigraph mapping.
	g := New(6)
	g.AddEdge(0, 1, 3) // comp A
	g.AddEdge(4, 5, 7) // comp B
	g.AddEdge(1, 0, 9) // comp A, parallel
	g.AddEdge(4, 4, 1) // comp B, self-loop
	g.AddEdge(1, 2, 2) // comp A
	labels, count := g.Components()
	parts, localOf := g.Partition(labels, count)
	if len(parts) != count || count != 3 {
		t.Fatalf("count = %d, parts = %d, want 3", count, len(parts))
	}
	totalNodes, totalEdges := 0, 0
	for c, p := range parts {
		sub := g.Induce(p, localOf)
		totalNodes += sub.N()
		totalEdges += sub.M()
		if len(p.Nodes) != sub.N() || len(p.Edges) != sub.M() {
			t.Fatalf("part %d: map sizes %d/%d vs graph %d/%d",
				c, len(p.Nodes), len(p.Edges), sub.N(), sub.M())
		}
		for newV, oldV := range p.Nodes {
			if labels[oldV] != c || localOf[oldV] != newV {
				t.Fatalf("part %d: node map inconsistent at %d->%d", c, newV, oldV)
			}
		}
		for newE, oldE := range p.Edges {
			want := g.Edge(oldE)
			got := sub.Edge(newE)
			if p.Nodes[got.U] != want.U || p.Nodes[got.V] != want.V || got.Weight != want.Weight {
				t.Fatalf("part %d: edge %d maps to %v, want %v", c, newE, got, want)
			}
		}
		// Node and edge order must be preserved (ascending old indices).
		for i := 1; i < len(p.Nodes); i++ {
			if p.Nodes[i] <= p.Nodes[i-1] {
				t.Fatalf("part %d: node order not preserved: %v", c, p.Nodes)
			}
		}
		for i := 1; i < len(p.Edges); i++ {
			if p.Edges[i] <= p.Edges[i-1] {
				t.Fatalf("part %d: edge order not preserved: %v", c, p.Edges)
			}
		}
	}
	if totalNodes != g.N() || totalEdges != g.M() {
		t.Fatalf("partition covers %d/%d nodes/edges, want %d/%d",
			totalNodes, totalEdges, g.N(), g.M())
	}
}

func TestInducedComponentsRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(30) + 1
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddEdge(u, v, int64(rng.Intn(9)))
		}
		labels, count := g.Components()
		parts, localOf := g.Partition(labels, count)
		// Each part must be connected and its edge weights must round-trip.
		for _, p := range parts {
			sub := g.Induce(p, localOf)
			if _, pc := sub.Components(); sub.N() > 0 && pc != 1 {
				t.Fatalf("trial %d: part has %d components", trial, pc)
			}
			for newE, oldE := range p.Edges {
				if sub.Edge(newE).Weight != g.Edge(oldE).Weight {
					t.Fatalf("trial %d: weight mismatch", trial)
				}
			}
		}
	}
}

func TestInducedComponentsCrossEdgePanics(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("partition cutting an edge must panic")
		}
	}()
	g.Partition([]int{0, 1}, 2)
}
