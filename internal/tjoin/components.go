package tjoin

import (
	"context"
	"sort"

	"repro/internal/graph"
)

// Method selects a T-join algorithm for SolveContext.
type Method int

const (
	// MethodGeneralizedGadget uses the paper's generalized gadgets
	// (unbounded complete groups) — the default.
	MethodGeneralizedGadget Method = iota
	// MethodOptimizedGadget uses the TCAD'99 optimized gadgets (groups of
	// at most 3) — the runtime baseline of Table 1.
	MethodOptimizedGadget
	// MethodLawler uses the shortest-path metric-closure reduction.
	MethodLawler
)

// Options configures SolveContext.
type Options struct {
	Method Method
}

// groupCap is the gadget group size of the selected gadget method.
func (o Options) groupCap() int {
	switch o.Method {
	case MethodOptimizedGadget:
		return 3
	default:
		return Unbounded
	}
}

// SolveContext computes a minimum-weight T-join of g, decomposing the
// problem per connected component so that the matching instances stay small
// (conflict graphs of real layouts consist of many local components). One
// graph.Partition pass splits g; only the components that hold terminals
// are solved, since the others contribute no edges. Each of those is induced
// without parallel edges and self-loops (see simpleEdges), so every method
// solves the same simple graph, picks the same edge of a parallel class, and
// the gadget statistics, accumulated across components, describe the
// instance actually matched. It polls ctx between components and threads it
// into the matching solver's primal-dual rounds, returning ctx.Err()
// promptly once the context is done.
func SolveContext(ctx context.Context, g *graph.Graph, T []int, opt Options) (Result, error) {
	comp, nc := g.Components()
	tByComp := make([][]int, nc)
	for _, t := range T {
		c := comp[t]
		tByComp[c] = append(tByComp[c], t)
	}
	parts, localOf := g.Partition(comp, nc)
	win, keep := make([]int, g.N()), make([]bool, g.M())
	for i := range win {
		win[i] = -1
	}
	var total Result
	for c := 0; c < nc; c++ {
		if len(tByComp[c]) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		part := graph.Part{Nodes: parts[c].Nodes, Edges: simpleEdges(g, parts[c], win, keep)}
		sub, edgeOf := g.Induce(part, localOf), part.Edges
		subT := make([]int, len(tByComp[c]))
		for i, t := range tByComp[c] {
			subT[i] = localOf[t]
		}
		sort.Ints(subT)
		var (
			r   Result
			err error
		)
		if opt.Method == MethodLawler {
			r, err = solveLawler(ctx, sub, subT)
		} else {
			r, err = solveGadget(ctx, sub, subT, opt.groupCap())
		}
		if err != nil {
			return Result{}, err
		}
		for _, ei := range r.Edges {
			total.Edges = append(total.Edges, edgeOf[ei])
		}
		total.Weight += r.Weight
		total.GadgetNodes += r.GadgetNodes
		total.GadgetEdges += r.GadgetEdges
	}
	sort.Ints(total.Edges)
	return total, nil
}

// simpleEdges returns, ascending, the edges of part p that a minimum T-join
// needs to consider: one per unordered node pair, the cheapest with the
// lowest index on ties, and no self-loops. This is exact for non-negative
// weights (Edmonds & Johnson): a join holding two parallel edges stays a
// join without both and weighs no more, and one holding a parallel edge may
// swap it for the cheapest of its class. win (one entry per node of g, all
// -1) and keep (one per edge, all false) are scratch shared across the parts
// of one partition; win is left all -1 again.
func simpleEdges(g *graph.Graph, p graph.Part, win []int, keep []bool) []int {
	for _, u := range p.Nodes {
		adj := g.Adj(u)
		for _, a := range adj {
			if a.To <= u {
				continue // each pair is seen from its lower end; self-loops never
			}
			w := win[a.To]
			if w < 0 {
				win[a.To] = a.Edge
				continue
			}
			we, ww := g.Edge(a.Edge).Weight, g.Edge(w).Weight
			if we < ww || (we == ww && a.Edge < w) {
				win[a.To] = a.Edge
			}
		}
		for _, a := range adj {
			if a.To > u && win[a.To] >= 0 {
				keep[win[a.To]] = true
				win[a.To] = -1
			}
		}
	}
	out := make([]int, 0, len(p.Edges))
	for _, e := range p.Edges {
		if keep[e] {
			out = append(out, e)
		}
	}
	return out
}
