// Package tjoin solves the minimum-weight T-join problem, the dual
// formulation of planar-graph bipartization used by the AAPSM conflict
// detection flow (paper §3.1.2).
//
// Given an undirected weighted graph G and an even terminal set T, a T-join
// is an edge set A such that a node has odd degree in A exactly when it
// belongs to T. Three solvers are provided:
//
//   - SolveGadget: the paper's reduction to minimum-weight perfect matching
//     via node gadgets. The group-size cap selects the gadget family: cap 3
//     reproduces the "optimized gadgets" of Berman et al. (TCAD'99); an
//     unbounded cap is this paper's "generalized gadget", which materializes
//     fewer nodes (Table 1's runtime columns compare the two).
//   - solveLawler (MethodLawler in SolveContext): the classical reduction
//     via shortest-path metric closure over T — the correctness reference.
//   - SolveExhaustiveContext: brute force over edge subsets for tiny graphs
//     (tests).
//
// All solvers require non-negative weights and return the selected edge
// indices of G. SolveContext, the entry point of the detection flow, hands
// every method the same instance with parallel edges and self-loops removed.
package tjoin

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/matching"
)

// ErrNoTJoin is returned when no T-join exists (some component contains an
// odd number of terminals).
var ErrNoTJoin = errors.New("tjoin: no T-join exists (odd terminal count in a component)")

// Unbounded selects the generalized gadget with a single complete group per
// node (no divide nodes).
const Unbounded = 1 << 30

// Result is a solved T-join.
type Result struct {
	Edges  []int // indices into g.Edges(), ascending
	Weight int64
	// Gadget statistics (SolveGadget only): size of the matching instance.
	GadgetNodes int
	GadgetEdges int
}

// validate checks weights and terminal parity per component.
func validate(g *graph.Graph, T []int) error {
	for _, e := range g.Edges() {
		if e.Weight < 0 {
			return fmt.Errorf("tjoin: negative weight %d", e.Weight)
		}
	}
	inT := make([]bool, g.N())
	for _, t := range T {
		if t < 0 || t >= g.N() {
			return fmt.Errorf("tjoin: terminal %d out of range", t)
		}
		if inT[t] {
			return fmt.Errorf("tjoin: duplicate terminal %d", t)
		}
		inT[t] = true
	}
	comp, nc := g.Components()
	cnt := make([]int, nc)
	for _, t := range T {
		cnt[comp[t]]++
	}
	for _, c := range cnt {
		if c%2 != 0 {
			return ErrNoTJoin
		}
	}
	return nil
}

// CheckJoin verifies that edges form a T-join of g; it is exported for use
// by tests and the detection flow's self-checks.
func CheckJoin(g *graph.Graph, T []int, edges []int) error {
	deg := make([]int, g.N())
	seen := make(map[int]bool, len(edges))
	for _, ei := range edges {
		if ei < 0 || ei >= g.M() {
			return fmt.Errorf("tjoin: edge index %d out of range", ei)
		}
		if seen[ei] {
			return fmt.Errorf("tjoin: duplicate edge %d", ei)
		}
		seen[ei] = true
		e := g.Edge(ei)
		deg[e.U]++
		deg[e.V]++
	}
	inT := make([]bool, g.N())
	for _, t := range T {
		inT[t] = true
	}
	for v := 0; v < g.N(); v++ {
		if (deg[v]%2 == 1) != inT[v] {
			return fmt.Errorf("tjoin: node %d has join degree %d but inT=%v", v, deg[v], inT[v])
		}
	}
	return nil
}

// SolveGadget reduces the T-join problem to minimum-weight perfect matching
// using the gadget family selected by groupCap (>=1): each graph node
// becomes ports (one per incident non-loop edge, plus one parity node when
// needed) arranged into complete groups of at most groupCap nodes, chained
// by divide-node pairs. Matching a port-pair edge puts the corresponding
// graph edge into the join.
func SolveGadget(g *graph.Graph, T []int, groupCap int) (Result, error) {
	//aapsmvet:allow ctxflow compatibility wrapper for non-cancellable callers; the ctx-aware path is solveGadget via SolveContext
	return solveGadget(context.Background(), g, T, groupCap)
}

func solveGadget(ctx context.Context, g *graph.Graph, T []int, groupCap int) (Result, error) {
	if groupCap < 1 {
		return Result{}, fmt.Errorf("tjoin: groupCap %d < 1", groupCap)
	}
	if err := validate(g, T); err != nil {
		return Result{}, err
	}
	if len(T) == 0 {
		return Result{}, nil // empty join is optimal: weights are non-negative
	}
	inT := make([]bool, g.N())
	for _, t := range T {
		inT[t] = true
	}

	// Pre-size the matching instance: count non-loop incidences per node so
	// the port lists and the edge slice are allocated once instead of grown
	// through repeated appends (the gadget construction used to dominate the
	// allocation profile of small per-component solves).
	m2 := 0
	deg := make([]int, g.N())
	for _, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		m2++
		deg[e.U]++
		deg[e.V]++
	}
	cap0 := groupCap
	estEdges := m2
	for v := 0; v < g.N(); v++ {
		k := deg[v] + 1 // +1 for a potential parity node
		if k <= cap0 {
			estEdges += k * (k - 1) / 2
		} else {
			ng := (k + cap0 - 1) / cap0
			estEdges += ng*cap0*(cap0-1)/2 + (ng-1)*(2*cap0+2)
		}
	}

	nodes := 0
	newNode := func() int { nodes++; return nodes - 1 }
	medges := make([]matching.WeightedEdge, 0, estEdges)
	addM := func(u, v int, w int64) {
		medges = append(medges, matching.WeightedEdge{U: u, V: v, Weight: w})
	}

	// Port creation: portPair[k] = (portU, portV, graph edge index).
	type portPair struct{ pu, pv, edge int }
	pairs := make([]portPair, 0, m2)
	portBacking := make([]int, 0, 2*m2+g.N())
	portsAt := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		off := len(portBacking)
		portBacking = portBacking[:off+deg[v]+1]
		portsAt[v] = portBacking[off : off : off+deg[v]+1]
	}
	for ei, e := range g.Edges() {
		if e.U == e.V {
			continue // self-loops never help a T-join
		}
		pu, pv := newNode(), newNode()
		pairs = append(pairs, portPair{pu, pv, ei})
		addM(pu, pv, e.Weight)
		portsAt[e.U] = append(portsAt[e.U], pu)
		portsAt[e.V] = append(portsAt[e.V], pv)
	}

	// Node gadgets.
	for v := 0; v < g.N(); v++ {
		members := portsAt[v]
		p := 0
		if inT[v] {
			p = 1
		}
		if (len(members)+p)%2 == 1 {
			members = append(members, newNode()) // parity node
		}
		if len(members) == 0 {
			continue
		}
		// Chunk into complete groups of at most groupCap.
		var groups [][]int
		for i := 0; i < len(members); i += groupCap {
			j := i + groupCap
			if j > len(members) {
				j = len(members)
			}
			groups = append(groups, members[i:j])
		}
		for _, grp := range groups {
			for i := 0; i < len(grp); i++ {
				for j := i + 1; j < len(grp); j++ {
					addM(grp[i], grp[j], 0)
				}
			}
		}
		// Divide pairs chain consecutive groups; consecutive pairs are
		// linked so a carry can pass through an exhausted group.
		prevB := -1
		for i := 0; i+1 < len(groups); i++ {
			a, b := newNode(), newNode()
			addM(a, b, 0)
			for _, x := range groups[i] {
				addM(a, x, 0)
			}
			for _, x := range groups[i+1] {
				addM(b, x, 0)
			}
			if prevB >= 0 {
				addM(prevB, a, 0)
			}
			prevB = b
		}
	}

	res := Result{GadgetNodes: nodes, GadgetEdges: len(medges)}
	if nodes == 0 {
		return res, nil
	}
	mate, _, err := matching.MinWeightPerfectMatchingCtx(ctx, nodes, medges)
	if err != nil {
		if errors.Is(err, matching.ErrNoPerfectMatching) {
			return Result{}, ErrNoTJoin
		}
		return Result{}, err
	}
	for _, pp := range pairs {
		if mate[pp.pu] == pp.pv {
			res.Edges = append(res.Edges, pp.edge)
			res.Weight += g.Edge(pp.edge).Weight
		}
	}
	sort.Ints(res.Edges)
	return res, nil
}

// solveLawler solves the T-join via shortest paths: build the metric closure
// over T, find its minimum-weight perfect matching, and take the symmetric
// difference of the matched shortest paths. SolveContext runs it per
// component for MethodLawler.
func solveLawler(ctx context.Context, g *graph.Graph, T []int) (Result, error) {
	if err := validate(g, T); err != nil {
		return Result{}, err
	}
	if len(T) == 0 {
		return Result{}, nil
	}

	nT := len(T)
	s := newLawlerScratch(g, T)
	// Phase 1: terminal-to-terminal distances. Only the |T|² closure is
	// retained — predecessor arrays are re-derived per matched pair in
	// phase 3, so memory stays O(|T|² + N) instead of O(|T|·N).
	pairD := make([]int64, nT*nT)
	for i, t := range T {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		s.run(t, -1)
		for j, u := range T {
			if s.done[u] == s.epoch {
				pairD[i*nT+j] = s.dist[u]
			} else {
				pairD[i*nT+j] = -1 // unreachable
			}
		}
	}

	// Phase 2: sparsify the complete closure before matching. Every pair
	// weight is non-negative, so a pair used by some minimum-weight perfect
	// matching weighs at most any upper bound U on the optimum; pairs
	// heavier than the nearest-neighbor greedy matching's total can be
	// dropped outright. The greedy matching's own pairs each weigh at most
	// U, so the pruned closure always retains a perfect matching. On
	// clustered instances (the dual graphs of real layouts) this removes
	// the long cross-cluster tail of the |T|² closure.
	const unmatched = -1
	gmate := make([]int, nT)
	for i := range gmate {
		gmate[i] = unmatched
	}
	var upper int64
	for i := 0; i < nT; i++ {
		if gmate[i] != unmatched {
			continue
		}
		best := -1
		for j := i + 1; j < nT; j++ {
			if gmate[j] != unmatched {
				continue
			}
			if d := pairD[i*nT+j]; d >= 0 && (best < 0 || d < pairD[i*nT+best]) {
				best = j
			}
		}
		if best >= 0 { // unreachable leftovers surface as ErrNoTJoin below
			gmate[i], gmate[best] = best, i
			upper += pairD[i*nT+best]
		}
	}
	cnt := 0
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if d := pairD[i*nT+j]; d >= 0 && d <= upper {
				cnt++
			}
		}
	}
	medges := make([]matching.WeightedEdge, 0, cnt)
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if d := pairD[i*nT+j]; d >= 0 && d <= upper {
				medges = append(medges, matching.WeightedEdge{U: i, V: j, Weight: d})
			}
		}
	}
	mate, _, err := matching.MinWeightPerfectMatchingCtx(ctx, nT, medges)
	if err != nil {
		if errors.Is(err, matching.ErrNoPerfectMatching) {
			return Result{}, ErrNoTJoin
		}
		return Result{}, err
	}

	// Phase 3: XOR the matched shortest paths, re-tracing each pair with a
	// targeted run that stops as soon as the partner terminal settles.
	inJoin := make(map[int]bool)
	for i, t := range T {
		j := mate[i]
		if j < i {
			continue
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		s.run(t, T[j])
		u := T[j]
		for u != t {
			ei := int(s.via[u])
			inJoin[ei] = !inJoin[ei]
			e := g.Edge(ei)
			if e.U == u {
				u = e.V
			} else {
				u = e.U
			}
		}
	}
	var res Result
	for ei, in := range inJoin {
		if in {
			res.Edges = append(res.Edges, ei)
			res.Weight += g.Edge(ei).Weight
		}
	}
	sort.Ints(res.Edges)
	return res, nil
}

// SolveExhaustiveContext enumerates all edge subsets; only usable for tiny
// graphs (m <= ~20). Exported for cross-validation in tests. Even a 22-edge
// instance spins through 2^22 subset masks, so the mask loop polls ctx
// periodically and returns ctx.Err() promptly once it is done.
func SolveExhaustiveContext(ctx context.Context, g *graph.Graph, T []int) (Result, error) {
	if g.M() > 22 {
		return Result{}, fmt.Errorf("tjoin: %d edges too many for exhaustive solve", g.M())
	}
	if err := validate(g, T); err != nil {
		return Result{}, err
	}
	inT := make([]bool, g.N())
	for _, t := range T {
		inT[t] = true
	}
	const inf = int64(1) << 62
	best := inf
	var bestSet []int
	deg := make([]int, g.N())
	for mask := 0; mask < 1<<g.M(); mask++ {
		if mask&0x1fff == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		for i := range deg {
			deg[i] = 0
		}
		var w int64
		for ei := 0; ei < g.M(); ei++ {
			if mask&(1<<ei) != 0 {
				e := g.Edge(ei)
				deg[e.U]++
				deg[e.V]++
				w += e.Weight
			}
		}
		if w >= best {
			continue
		}
		ok := true
		for v := 0; v < g.N(); v++ {
			if (deg[v]%2 == 1) != inT[v] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		best = w
		bestSet = bestSet[:0]
		for ei := 0; ei < g.M(); ei++ {
			if mask&(1<<ei) != 0 {
				bestSet = append(bestSet, ei)
			}
		}
	}
	if best == inf {
		return Result{}, ErrNoTJoin
	}
	return Result{Edges: bestSet, Weight: best}, nil
}

// lawlerScratch bundles the buffers shared by every Dijkstra run of one
// solveLawler call. Epoch stamping replaces the O(N) per-run clears, and the
// typed binary heap keeps (dist, node) in parallel slices, so the ~1.5·|T|
// runs of a solve neither re-allocate nor box each heap item through
// container/heap's interface{} API.
type lawlerScratch struct {
	g      *graph.Graph
	isTerm []bool
	nTerm  int
	epoch  int64
	stamp  []int64 // epoch when dist/via were last written
	done   []int64 // epoch when the node was settled
	dist   []int64
	via    []int32 // predecessor edge index into g.Edges(); -1 at the source
	heapD  []int64
	heapN  []int32
}

func newLawlerScratch(g *graph.Graph, T []int) *lawlerScratch {
	n := g.N()
	s := &lawlerScratch{
		g:      g,
		isTerm: make([]bool, n),
		nTerm:  len(T),
		stamp:  make([]int64, n),
		done:   make([]int64, n),
		dist:   make([]int64, n),
		via:    make([]int32, n),
		heapD:  make([]int64, 0, n),
		heapN:  make([]int32, 0, n),
	}
	for _, t := range T {
		s.isTerm[t] = true
	}
	return s
}

func (s *lawlerScratch) push(d int64, n int32) {
	s.heapD = append(s.heapD, d)
	s.heapN = append(s.heapN, n)
	i := len(s.heapD) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.heapD[p] <= s.heapD[i] {
			break
		}
		s.heapD[p], s.heapD[i] = s.heapD[i], s.heapD[p]
		s.heapN[p], s.heapN[i] = s.heapN[i], s.heapN[p]
		i = p
	}
}

func (s *lawlerScratch) pop() int32 {
	n := s.heapN[0]
	last := len(s.heapD) - 1
	s.heapD[0], s.heapN[0] = s.heapD[last], s.heapN[last]
	s.heapD, s.heapN = s.heapD[:last], s.heapN[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && s.heapD[l] < s.heapD[m] {
			m = l
		}
		if r < last && s.heapD[r] < s.heapD[m] {
			m = r
		}
		if m == i {
			return n
		}
		s.heapD[i], s.heapD[m] = s.heapD[m], s.heapD[i]
		s.heapN[i], s.heapN[m] = s.heapN[m], s.heapN[i]
		i = m
	}
}

// run grows shortest paths from src and terminates early: once every
// terminal is settled — or, when stop >= 0, as soon as stop itself settles —
// the remaining frontier can no longer change any settled node, and a
// settled node's predecessor chain passes through settled nodes only, so the
// distances and via edges consumed by solveLawler are final. Unreached
// terminals keep a stale stamp (treated as unreachable).
func (s *lawlerScratch) run(src, stop int) {
	s.epoch++
	ep := s.epoch
	s.heapD, s.heapN = s.heapD[:0], s.heapN[:0]
	s.stamp[src] = ep
	s.dist[src] = 0
	s.via[src] = -1
	s.push(0, int32(src))
	settled := 0
	for len(s.heapD) > 0 {
		u := int(s.pop())
		if s.done[u] == ep {
			continue
		}
		s.done[u] = ep
		if s.isTerm[u] {
			settled++
			if u == stop || (stop < 0 && settled == s.nTerm) {
				return
			}
		}
		du := s.dist[u]
		for _, a := range s.g.Adj(u) {
			nd := du + s.g.Edge(a.Edge).Weight
			x := a.To
			if s.stamp[x] != ep || nd < s.dist[x] {
				s.stamp[x] = ep
				s.dist[x] = nd
				s.via[x] = int32(a.Edge)
				s.push(nd, int32(x))
			}
		}
	}
}
