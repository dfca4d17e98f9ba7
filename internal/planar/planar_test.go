package planar

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

func k4Crossing() *Drawing {
	// Square 0-1-2-3 with both diagonals drawn straight: diagonals cross.
	g := graph.New(4)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}
	g.AddEdge(0, 1, 5) // 0
	g.AddEdge(1, 2, 5) // 1
	g.AddEdge(2, 3, 5) // 2
	g.AddEdge(3, 0, 5) // 3
	g.AddEdge(0, 2, 3) // 4 diagonal
	g.AddEdge(1, 3, 7) // 5 diagonal
	return NewDrawing(g, pos)
}

func TestPolylineAndSegments(t *testing.T) {
	g := graph.New(2)
	d := NewDrawing(g, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	e := g.AddEdge(0, 1, 1)
	if segs := d.Segments(e); len(segs) != 1 || segs[0] != geom.Seg(geom.Pt(0, 0), geom.Pt(10, 0)) {
		t.Fatalf("straight segments = %v", segs)
	}
	d.SetBends(e, geom.Pt(5, 5))
	segs := d.Segments(e)
	if len(segs) != 2 || segs[0].B != geom.Pt(5, 5) || segs[1].A != geom.Pt(5, 5) {
		t.Fatalf("bent segments = %v", segs)
	}
}

func TestCrossingsK4(t *testing.T) {
	d := k4Crossing()
	pairs := d.Crossings(1)
	if len(pairs) != 1 || pairs[0] != [2]int{4, 5} {
		t.Fatalf("crossings = %v, want [[4 5]]", pairs)
	}
}

func TestEdgesCrossSharedNode(t *testing.T) {
	g := graph.New(3)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10)}
	e1 := g.AddEdge(0, 1, 1)
	e2 := g.AddEdge(1, 2, 1)
	d := NewDrawing(g, pos)
	if d.EdgesCross(e1, e2) {
		t.Error("edges sharing a node should not cross at that node")
	}
	// Collinear overlap through the shared node crosses.
	h := graph.New(3)
	hp := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 0)}
	f1 := h.AddEdge(0, 1, 1)
	f2 := h.AddEdge(1, 2, 1) // runs back along edge f1
	dh := NewDrawing(h, hp)
	if !dh.EdgesCross(f1, f2) {
		t.Error("collinear overlap through shared node must cross")
	}
}

func TestEdgesCrossCoincidentDistinctNodes(t *testing.T) {
	// Non-adjacent edges that touch at a point which is a node position of
	// one of them: counted as a crossing.
	g := graph.New(4)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 0), geom.Pt(5, 10)}
	e1 := g.AddEdge(0, 1, 1)
	e2 := g.AddEdge(2, 3, 1) // starts on e1's interior
	d := NewDrawing(g, pos)
	if !d.EdgesCross(e1, e2) {
		t.Error("touch at non-shared node must count as crossing")
	}
}

func TestPlanarizeRemovesCheapDiagonal(t *testing.T) {
	d := k4Crossing()
	removed := d.PlanarizeGiven(d.Crossings(1))
	if len(removed) != 1 || removed[0] != 4 {
		t.Fatalf("removed = %v, want [4] (the weight-3 diagonal)", removed)
	}
	nd, oldIdx := d.WithoutEdgeSet([]bool{4: true})
	if len(nd.Crossings(1)) != 0 {
		t.Error("drawing should be crossing-free after removal")
	}
	if nd.G.M() != 5 {
		t.Errorf("edges after removal = %d", nd.G.M())
	}
	for newI, oldI := range oldIdx {
		if nd.G.Edge(newI).Weight != d.G.Edge(oldI).Weight {
			t.Error("edge mapping broken")
		}
	}
}

func TestPlanarizeTieBreaksByCrossingCount(t *testing.T) {
	// Edge 2 crosses both edge 0 and edge 1 (all same weight): removing it
	// alone suffices and greedy should pick it first.
	g := graph.New(6)
	pos := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), // e0 tail/head
		geom.Pt(0, 5), geom.Pt(10, 5), // e1
		geom.Pt(5, -5), geom.Pt(5, 10), // e2 vertical through both
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(4, 5, 1)
	d := NewDrawing(g, pos)
	removed := d.PlanarizeGiven(d.Crossings(1))
	if len(removed) != 1 || removed[0] != 2 {
		t.Fatalf("removed = %v, want [2]", removed)
	}
}

func TestEmbeddingTriangle(t *testing.T) {
	g := graph.New(3)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8)}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	em, err := BuildEmbedding(NewDrawing(g, pos))
	if err != nil {
		t.Fatal(err)
	}
	if em.NumFaces != 2 {
		t.Fatalf("faces = %d, want 2", em.NumFaces)
	}
	for f, l := range em.FaceLen {
		if l != 3 {
			t.Errorf("face %d length = %d, want 3", f, l)
		}
	}
	if got := em.OddFaces(); len(got) != 2 {
		t.Errorf("odd faces = %v", got)
	}
	dg, primalOf, T := em.Dual()
	if dg.N() != 2 || dg.M() != 3 || len(T) != 2 {
		t.Errorf("dual: n=%d m=%d T=%v", dg.N(), dg.M(), T)
	}
	if len(primalOf) != 3 {
		t.Errorf("primalOf = %v", primalOf)
	}
}

func TestEmbeddingSquareEvenFaces(t *testing.T) {
	g := graph.New(4)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}
	for i := 0; i < 4; i++ {
		g.AddEdge(i, (i+1)%4, 1)
	}
	em, err := BuildEmbedding(NewDrawing(g, pos))
	if err != nil {
		t.Fatal(err)
	}
	if em.NumFaces != 2 || len(em.OddFaces()) != 0 {
		t.Fatalf("faces=%d odd=%v", em.NumFaces, em.OddFaces())
	}
}

func TestEmbeddingBentTriangle(t *testing.T) {
	// Triangle with one edge routed through a bend: still 2 faces of
	// logical length 3.
	g := graph.New(3)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8)}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	e := g.AddEdge(2, 0, 1)
	d := NewDrawing(g, pos)
	d.SetBends(e, geom.Pt(-3, 4))
	em, err := BuildEmbedding(d)
	if err != nil {
		t.Fatal(err)
	}
	if em.NumFaces != 2 {
		t.Fatalf("faces = %d, want 2", em.NumFaces)
	}
	for f, l := range em.FaceLen {
		if l != 3 {
			t.Errorf("face %d logical length = %d, want 3", f, l)
		}
	}
}

func TestEmbeddingBridgeAndPath(t *testing.T) {
	g := graph.New(3)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(20, 0)}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	em, err := BuildEmbedding(NewDrawing(g, pos))
	if err != nil {
		t.Fatal(err)
	}
	if em.NumFaces != 1 || em.FaceLen[0] != 4 {
		t.Fatalf("faces=%d len=%v, want one face of length 4", em.NumFaces, em.FaceLen)
	}
	// Dual: self loops on the single face.
	dg, _, T := em.Dual()
	if dg.N() != 1 || dg.M() != 2 || len(T) != 0 {
		t.Errorf("dual n=%d m=%d T=%v", dg.N(), dg.M(), T)
	}
}

func TestEmbeddingTwoComponents(t *testing.T) {
	g := graph.New(6)
	pos := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8),
		geom.Pt(100, 0), geom.Pt(110, 0), geom.Pt(105, 8),
	}
	for i := 0; i < 3; i++ {
		g.AddEdge(i, (i+1)%3, 1)
		g.AddEdge(3+i, 3+(i+1)%3, 1)
	}
	em, err := BuildEmbedding(NewDrawing(g, pos))
	if err != nil {
		t.Fatal(err)
	}
	// Each triangle: inner + outer face; outer faces are per component.
	if em.NumFaces != 4 {
		t.Fatalf("faces = %d, want 4", em.NumFaces)
	}
	if got := em.OddFaces(); len(got) != 4 {
		t.Errorf("odd faces = %v", got)
	}
}

func TestEmbeddingGridEuler(t *testing.T) {
	// 4x3 grid graph: V=12, E=17, inner faces 6, outer 1.
	const nx, ny = 4, 3
	g := graph.New(nx * ny)
	pos := make([]geom.Point, nx*ny)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			pos[id(x, y)] = geom.Pt(int64(x*10), int64(y*10))
			if x+1 < nx {
				g.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < ny {
				g.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	em, err := BuildEmbedding(NewDrawing(g, pos))
	if err != nil {
		t.Fatal(err)
	}
	wantFaces := g.M() - g.N() + 2 // Euler for connected planar
	if em.NumFaces != wantFaces {
		t.Fatalf("faces = %d, want %d", em.NumFaces, wantFaces)
	}
	inner4, outer := 0, 0
	for _, l := range em.FaceLen {
		switch l {
		case 4:
			inner4++
		case 2*(nx-1) + 2*(ny-1):
			outer++
		default:
			t.Errorf("unexpected face length %d", l)
		}
	}
	if inner4 != (nx-1)*(ny-1) || outer != 1 {
		t.Errorf("inner=%d outer=%d", inner4, outer)
	}
	if len(em.OddFaces()) != 0 {
		t.Error("grid has no odd faces")
	}
	// Sum of face lengths = 2*E.
	sum := 0
	for _, l := range em.FaceLen {
		sum += l
	}
	if sum != 2*g.M() {
		t.Errorf("sum of face lengths = %d, want %d", sum, 2*g.M())
	}
}

func TestBuildEmbeddingRejectsCrossings(t *testing.T) {
	if _, err := BuildEmbedding(k4Crossing()); err == nil {
		t.Fatal("expected error for crossing drawing")
	}
}

func TestParallelEdgesFaces(t *testing.T) {
	// Two nodes, two parallel edges drawn apart via bends: a 2-face lens
	// plus the outer face.
	g := graph.New(2)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	e1 := g.AddEdge(0, 1, 1)
	e2 := g.AddEdge(0, 1, 1)
	d := NewDrawing(g, pos)
	d.SetBends(e1, geom.Pt(5, 5))
	d.SetBends(e2, geom.Pt(5, -5))
	em, err := BuildEmbedding(d)
	if err != nil {
		t.Fatal(err)
	}
	if em.NumFaces != 2 {
		t.Fatalf("faces = %d, want 2", em.NumFaces)
	}
	for _, l := range em.FaceLen {
		if l != 2 {
			t.Errorf("face length = %d, want 2", l)
		}
	}
}

func TestInduce(t *testing.T) {
	// Two parts interleaved in node and edge order. Part 0 holds a bent
	// edge and a parallel pair (one straight, one bent); part 1 holds a
	// straight edge and a bent one.
	g := graph.New(5)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(50, 50), geom.Pt(10, 0), geom.Pt(60, 50), geom.Pt(10, 10)}
	g.AddEdge(0, 2, 4) // 0, part 0, straight
	g.AddEdge(1, 3, 6) // 1, part 1, straight
	g.AddEdge(2, 0, 8) // 2, part 0, parallel to 0, bent
	g.AddEdge(3, 1, 2) // 3, part 1, bent
	g.AddEdge(2, 4, 5) // 4, part 0, bent twice
	d := NewDrawing(g, pos)
	d.SetBends(2, geom.Pt(5, -5))
	d.SetBends(3, geom.Pt(55, 60))
	d.SetBends(4, geom.Pt(20, 0), geom.Pt(20, 10))
	labels := []int{0, 1, 0, 1, 0}
	parts, localOf := g.Partition(labels, 2)

	for c, p := range parts {
		sub := d.Induce(p, localOf)
		if sub.G.N() != len(p.Nodes) || sub.G.M() != len(p.Edges) || len(sub.Pos) != len(p.Nodes) {
			t.Fatalf("part %d: %d nodes %d edges %d positions, want %d/%d",
				c, sub.G.N(), sub.G.M(), len(sub.Pos), len(p.Nodes), len(p.Edges))
		}
		for i, v := range p.Nodes {
			if sub.Pos[i] != d.Pos[v] {
				t.Errorf("part %d node %d at %v, want %v", c, i, sub.Pos[i], d.Pos[v])
			}
		}
		for i, e := range p.Edges {
			if i > 0 && e <= p.Edges[i-1] {
				t.Fatalf("part %d: edge order not preserved: %v", c, p.Edges)
			}
			got, want := sub.G.Edge(i), g.Edge(e)
			if p.Nodes[got.U] != want.U || p.Nodes[got.V] != want.V || got.Weight != want.Weight {
				t.Errorf("part %d edge %d = %v, want parent edge %d %v", c, i, got, e, want)
			}
			if gp, wp := sub.Polyline(i), d.Polyline(e); !slices.Equal(gp, wp) {
				t.Errorf("part %d edge %d polyline %v, want %v", c, i, gp, wp)
			}
			if (sub.Bends[i] == nil) != (d.Bends[e] == nil) {
				t.Errorf("part %d edge %d bends %v, want %v", c, i, sub.Bends[i], d.Bends[e])
			}
		}
	}
	if want := []int{0, 2, 4}; !slices.Equal(parts[0].Edges, want) {
		t.Errorf("part 0 edges = %v, want %v", parts[0].Edges, want)
	}
	// The parallel lens of part 0 must survive as two faces plus a bridge
	// to node 4, exactly as in the parent drawing.
	em, err := BuildEmbedding(d.Induce(parts[0], localOf))
	if err != nil {
		t.Fatal(err)
	}
	if em.NumFaces != 2 {
		t.Errorf("part 0 faces = %d, want 2", em.NumFaces)
	}
}
