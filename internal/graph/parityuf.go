package graph

import "sort"

// ParityUF is a union–find augmented with edge parity, used by the greedy
// bipartization baseline: nodes in one set carry a relative color (0/1)
// toward their root; uniting two nodes with a "must differ" relation either
// merges consistently or detects an odd cycle.
type ParityUF struct {
	parent []int
	rank   []int
	parity []int8 // parity[x]: color of x relative to parent[x]
}

// NewParityUF creates a parity union–find over n elements.
func NewParityUF(n int) *ParityUF {
	uf := &ParityUF{
		parent: make([]int, n),
		rank:   make([]int, n),
		parity: make([]int8, n),
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns (root, parity of x relative to root) with path compression.
func (uf *ParityUF) Find(x int) (int, int8) {
	if uf.parent[x] == x {
		return x, 0
	}
	root, p := uf.Find(uf.parent[x])
	uf.parent[x] = root
	uf.parity[x] ^= p
	return root, uf.parity[x]
}

// UnionDiffer merges the sets of u and v under the constraint
// color(u) != color(v). It reports false — without modifying the structure's
// consistency — when the constraint contradicts the existing relations,
// i.e. adding edge (u,v) would create an odd cycle.
func (uf *ParityUF) UnionDiffer(u, v int) bool {
	ru, pu := uf.Find(u)
	rv, pv := uf.Find(v)
	if ru == rv {
		return pu != pv // consistent only when they already differ
	}
	// Attach smaller rank under larger; parity chosen so that
	// color(u) ^ color(v) == 1 holds.
	if uf.rank[ru] < uf.rank[rv] {
		ru, rv = rv, ru
		pu, pv = pv, pu
	}
	uf.parent[rv] = ru
	uf.parity[rv] = pu ^ pv ^ 1
	if uf.rank[ru] == uf.rank[rv] {
		uf.rank[ru]++
	}
	return true
}

// SameSet reports whether u and v are already related, and if so whether
// their colors are constrained equal.
func (uf *ParityUF) SameSet(u, v int) (same bool, equalColor bool) {
	ru, pu := uf.Find(u)
	rv, pv := uf.Find(v)
	if ru != rv {
		return false, false
	}
	return true, pu == pv
}

// GreedyBipartization runs the paper's Table 1 "GB" baseline: edges are
// considered in order of decreasing weight and kept whenever they do not
// close an odd cycle; the rejected edges are the selected AAPSM conflicts.
// Returned indices are ascending.
func GreedyBipartization(g *Graph) (conflicts []int) {
	uf := NewParityUF(g.N())
	for _, i := range g.SortedEdgeIndicesByWeightDesc() {
		e := g.Edge(i)
		if e.U == e.V || !uf.UnionDiffer(e.U, e.V) {
			conflicts = append(conflicts, i)
		}
	}
	sort.Ints(conflicts)
	return conflicts
}
