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
// are induced and solved, since the others contribute no edges. Gadget
// statistics are accumulated across components. It polls ctx between
// components and threads it into the matching solver's primal-dual rounds,
// returning ctx.Err() promptly once the context is done.
func SolveContext(ctx context.Context, g *graph.Graph, T []int, opt Options) (Result, error) {
	comp, nc := g.Components()
	tByComp := make([][]int, nc)
	for _, t := range T {
		c := comp[t]
		tByComp[c] = append(tByComp[c], t)
	}
	parts, localOf := g.Partition(comp, nc)
	var total Result
	for c := 0; c < nc; c++ {
		if len(tByComp[c]) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		sub, edgeOf := g.Induce(parts[c], localOf), parts[c].Edges
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
