// Package graph provides the weighted undirected multigraph substrate shared
// by the AAPSM conflict-detection flow: connected components, bipartiteness
// testing with odd-cycle extraction, a parity (bipartite) union–find, and
// greedy spanning structures.
//
// Nodes are dense ints 0..N-1; edges are identified by their index in the
// edge list so parallel edges and self-loops are representable (self-loops
// make a graph non-bipartite and are reported as their own odd cycles).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Edge is an undirected weighted edge.
type Edge struct {
	U, V   int
	Weight int64
}

// Graph is an undirected multigraph with int64 edge weights.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]Arc // Arc.To, Arc.Edge index
	dirty bool
}

// Arc is a directed half-edge in an adjacency list.
type Arc struct {
	To   int // head node
	Edge int // index into Edges()
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddNode appends a new node and returns its id.
func (g *Graph) AddNode() int {
	g.n++
	g.dirty = true
	return g.n - 1
}

// AddEdge appends an undirected edge and returns its index.
func (g *Graph) AddEdge(u, v int, w int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, g.n))
	}
	g.edges = append(g.edges, Edge{u, v, w})
	g.dirty = true
	return len(g.edges) - 1
}

// Grow reserves room for m more edges, so that many AddEdge calls do not
// reallocate the edge list.
func (g *Graph) Grow(m int) {
	g.edges = slices.Grow(g.edges, m)
}

// Edges returns the backing edge slice. Callers must not append; mutating
// weights is allowed before the next algorithm call.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns edge i.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Adj returns the adjacency list of node u, rebuilding lazily after
// mutation. Self-loops appear twice (once per end).
func (g *Graph) Adj(u int) []Arc {
	g.build()
	return g.adj[u]
}

func (g *Graph) build() {
	if !g.dirty && g.adj != nil {
		return
	}
	deg := make([]int, g.n)
	for _, e := range g.edges {
		deg[e.U]++
		deg[e.V]++
	}
	// One backing array for every list: a cluster graph is built once per
	// two-coloring, and a slice per node dominated that cost.
	back := make([]Arc, 2*len(g.edges))
	g.adj = make([][]Arc, g.n)
	off := 0
	for u := range g.adj {
		g.adj[u] = back[off : off : off+deg[u]]
		off += deg[u]
	}
	for i, e := range g.edges {
		g.adj[e.U] = append(g.adj[e.U], Arc{e.V, i})
		g.adj[e.V] = append(g.adj[e.V], Arc{e.U, i})
	}
	g.dirty = false
}

// Degree returns the degree of node u (self-loops count twice).
func (g *Graph) Degree(u int) int { return len(g.Adj(u)) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New(g.n)
	out.edges = append([]Edge(nil), g.edges...)
	out.dirty = true
	return out
}

// SubgraphWithoutEdgeSet returns a copy of g without the edges marked in
// skip (a boolean slice indexed by edge) and a mapping from new edge index
// to old edge index.
func (g *Graph) SubgraphWithoutEdgeSet(skip []bool) (*Graph, []int) {
	kept := 0
	for i := range g.edges {
		if i >= len(skip) || !skip[i] {
			kept++
		}
	}
	out := New(g.n)
	out.edges = make([]Edge, 0, kept)
	oldIdx := make([]int, 0, kept)
	for i, e := range g.edges {
		if i < len(skip) && skip[i] {
			continue
		}
		out.edges = append(out.edges, e)
		out.dirty = true
		oldIdx = append(oldIdx, i)
	}
	return out, oldIdx
}

// Part is one part of a graph partition produced by Partition: the parent
// node and edge indices it holds, both ascending. Local node i of the part is
// parent node Nodes[i]; local edge j is parent edge Edges[j].
type Part struct {
	Nodes []int
	Edges []int
}

// Partition splits g by the given node labels (labels[v] must be in
// [0, count)) and returns each part's node and edge lists together with the
// shared parent-node -> local-node map. Every edge must have both endpoints
// in the same part (self-loops trivially qualify); the function panics
// otherwise, since a partition that cuts edges has no induced decomposition.
// It is one O(N+M) pass and builds no subgraph; Induce builds one part on
// demand.
func (g *Graph) Partition(labels []int, count int) ([]Part, []int) {
	if len(labels) != g.n {
		panic(fmt.Sprintf("graph: %d labels for %d nodes", len(labels), g.n))
	}
	// Count each part's nodes and edges first, so every list is a window of
	// exactly its size into one backing array per kind.
	nodes, edges := make([]int, count), make([]int, count)
	for _, c := range labels {
		nodes[c]++
	}
	for ei, e := range g.edges {
		c := labels[e.U]
		if labels[e.V] != c {
			panic(fmt.Sprintf("graph: edge %d (%d,%d) crosses partition labels %d/%d",
				ei, e.U, e.V, c, labels[e.V]))
		}
		edges[c]++
	}
	parts := make([]Part, count)
	nodeBack, edgeBack := make([]int, g.n), make([]int, len(g.edges))
	nodeOff, edgeOff := 0, 0
	for c := range parts {
		if nodes[c] > 0 {
			parts[c].Nodes = nodeBack[nodeOff : nodeOff : nodeOff+nodes[c]]
			nodeOff += nodes[c]
		}
		if edges[c] > 0 {
			parts[c].Edges = edgeBack[edgeOff : edgeOff : edgeOff+edges[c]]
			edgeOff += edges[c]
		}
	}
	localOf := make([]int, g.n)
	for v, c := range labels {
		localOf[v] = len(parts[c].Nodes)
		parts[c].Nodes = append(parts[c].Nodes, v)
	}
	for ei, e := range g.edges {
		c := labels[e.U]
		parts[c].Edges = append(parts[c].Edges, ei)
	}
	return parts, localOf
}

// Induce builds the standalone subgraph of one part of a Partition of g,
// with localOf the partition's node map. Node and edge order is preserved,
// so algorithms whose tie-breaking depends on index order behave identically
// on the part and on the whole. It only reads g, so parts of one graph may be
// induced concurrently.
func (g *Graph) Induce(p Part, localOf []int) *Graph {
	sub := New(len(p.Nodes))
	sub.edges = make([]Edge, len(p.Edges))
	for i, ei := range p.Edges {
		e := g.edges[ei]
		sub.edges[i] = Edge{localOf[e.U], localOf[e.V], e.Weight}
	}
	sub.dirty = true
	return sub
}

// Components labels each node with a component id in [0, count) and returns
// (labels, count). Isolated nodes form their own components.
func (g *Graph) Components() ([]int, int) {
	g.build()
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	stack := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range g.adj[u] {
				if comp[a.To] < 0 {
					comp[a.To] = count
					stack = append(stack, a.To)
				}
			}
		}
		count++
	}
	return comp, count
}

// TwoColor attempts to 2-color the graph by BFS. It returns the coloring
// (0/1 per node, deterministic: each component root gets color 0) and true
// when the graph is bipartite. When it is not, ok is false and colors holds
// the partial coloring at the point of failure.
func (g *Graph) TwoColor() (colors []int8, ok bool) {
	g.build()
	colors = make([]int8, g.n)
	for i := range colors {
		colors[i] = -1
	}
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if colors[s] >= 0 {
			continue
		}
		colors[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, a := range g.adj[u] {
				if a.To == u { // self-loop: never 2-colorable
					return colors, false
				}
				if colors[a.To] < 0 {
					colors[a.To] = 1 - colors[u]
					queue = append(queue, a.To)
				} else if colors[a.To] == colors[u] {
					return colors, false
				}
			}
		}
	}
	return colors, true
}

// IsBipartite reports whether the graph is 2-colorable.
func (g *Graph) IsBipartite() bool {
	_, ok := g.TwoColor()
	return ok
}

// VerifyBipartition checks that removing the edges in removed leaves a
// bipartite graph; it returns the resulting 2-coloring of the remaining
// graph and ok.
func (g *Graph) VerifyBipartition(removed map[int]bool) ([]int8, bool) {
	skip := make([]bool, len(g.edges))
	for e := range removed {
		if e >= 0 && e < len(skip) {
			skip[e] = true
		}
	}
	return g.TwoColorWithoutEdges(skip)
}

// TwoColorWithoutEdges two-colors the graph as if the edges marked in skip
// were deleted, without materializing the subgraph. The coloring is
// identical to SubgraphWithoutEdgeSet + TwoColor (component roots in node
// order get color 0); ok is false when the remaining graph is not
// bipartite, with colors holding the partial coloring at failure.
func (g *Graph) TwoColorWithoutEdges(skip []bool) (colors []int8, ok bool) {
	colors = make([]int8, g.n)
	for i := range colors {
		colors[i] = -1
	}
	g.build()
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if colors[s] >= 0 {
			continue
		}
		colors[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, a := range g.adj[u] {
				if a.Edge < len(skip) && skip[a.Edge] {
					continue
				}
				if a.To == u { // self-loop: never 2-colorable
					return colors, false
				}
				if colors[a.To] < 0 {
					colors[a.To] = 1 - colors[u]
					queue = append(queue, a.To)
				} else if colors[a.To] == colors[u] {
					return colors, false
				}
			}
		}
	}
	return colors, true
}

// TotalWeight sums the weights of the given edge indices.
func (g *Graph) TotalWeight(edgeIdx []int) int64 {
	var s int64
	for _, i := range edgeIdx {
		s += g.edges[i].Weight
	}
	return s
}

// SortedEdgeIndicesByWeightDesc returns edge indices ordered by decreasing
// weight (ties by index for determinism).
func (g *Graph) SortedEdgeIndicesByWeightDesc() []int {
	idx := make([]int, len(g.edges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := g.edges[idx[a]], g.edges[idx[b]]
		if ea.Weight != eb.Weight {
			return ea.Weight > eb.Weight
		}
		return idx[a] < idx[b]
	})
	return idx
}
