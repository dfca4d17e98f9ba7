package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/fanout"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/planar"
	"repro/internal/tjoin"
)

// Conflict is one detected AAPSM conflict: a constraint edge whose removal
// was selected, resolved back to the pair of shifters that must be pulled
// apart (OverlapEdge) or the feature whose phase shifting must be abandoned
// (FeatureEdge — only chosen when a layout is unfixable by spacing alone).
type Conflict struct {
	Edge    int // edge index in the conflict graph
	Meta    EdgeMeta
	Deficit int64 // extra spacing needed to legalize the pair (OverlapEdge)
}

// Detection is the output of the full flow on one graph representation.
type Detection struct {
	Graph *ConflictGraph
	// CrossingsRemoved (the paper's potential set P): edges deleted so that
	// the drawing becomes an embedded planar graph (flow step 1b). Ordered
	// by conflict cluster, then by removal order within the cluster — a
	// deterministic order independent of the worker count.
	CrossingsRemoved []int
	// BipartizationEdges: the minimal deletion set found by the optimal
	// bipartization of the planarized graph (flow step 2), ascending. Its
	// size is Table 1's "NP" count when run on the PCG.
	BipartizationEdges []int
	// FinalConflicts: bipartization edges plus those members of P that
	// still violate the two-coloring (flow step 3), ascending by edge. Its
	// size is Table 1's PCG/FG count.
	FinalConflicts []Conflict
	// Stats for the benchmark tables.
	Stats Stats
}

// Stats collects the size and runtime figures reported in Table 1, plus the
// per-stage breakdown recorded by cmd/benchtab -json. Detection runs
// sharded by conflict cluster: the per-stage durations (PlanarTime,
// EmbedTime, MatchTime, RecheckTime) are summed across shards — CPU time,
// not wall clock, when Options.Workers > 1.
type Stats struct {
	GraphNodes    int
	GraphEdges    int
	CrossingPairs int
	DualNodes     int
	DualEdges     int
	OddFaces      int
	GadgetNodes   int
	GadgetEdges   int
	// Shards is the number of conflict clusters detected independently
	// (clusters with at least one edge).
	Shards int
	// ReusedShards counts clusters that took the result the previous
	// generation of an Incremental engine stored under their signature
	// bytes, instead of solving (always 0 for DetectContext).
	ReusedShards int
	// HierReusedShards counts clusters this run solved by taking the result
	// of an identical cluster (equal clusterSignature) solved in the same
	// run; HierSolvedShards counts the representatives whose result at
	// least one such cluster took. Both are 0 on a layout without repeated
	// clusters.
	HierReusedShards int
	HierSolvedShards int
	// LargestShardEdges is the edge count of the largest cluster — the
	// wall-clock bound of the parallel flow.
	LargestShardEdges int
	CrossTime         time.Duration // global geometric crossing sweep
	PlanarTime        time.Duration // greedy crossing removal
	EmbedTime         time.Duration // face tracing + dual construction
	MatchTime         time.Duration // dual T-join via matching
	RecheckTime       time.Duration // flow step 3
	TotalTime         time.Duration
}

// RecheckMode selects how flow step 3 decides which planarization-removed
// edges are real conflicts.
type RecheckMode int8

const (
	// RecheckColoring is the paper's method: two-color the bipartized
	// planar graph once, then flag every removed edge whose endpoints got
	// the same color. Simple but pessimistic — the fixed coloring cannot be
	// adjusted per edge.
	RecheckColoring RecheckMode = iota
	// RecheckParity is this implementation's improvement: seed a parity
	// union-find with the kept edges and re-admit removed edges from
	// heaviest to lightest, flagging only those that genuinely close an odd
	// cycle. Never worse than RecheckColoring (ablation bench
	// BenchmarkRecheckModes).
	RecheckParity
)

// Options configures the detection flow.
type Options struct {
	// TJoin.Method selects the T-join reduction (see tjoin.Options).
	TJoin tjoin.Options
	// Recheck selects the flow step 3 strategy.
	Recheck RecheckMode
	// Workers bounds the worker pool that detects conflict clusters in
	// parallel (<= 1 means sequential). The result is bit-identical for
	// any worker count: shards are deterministic and merged in shard order.
	Workers int
}

// DetectContext runs the complete flow of §3 on a prebuilt conflict graph:
//
//  1. planarize the drawing, collecting removed crossing edges P;
//  2. optimally bipartize the embedded planar remainder via the dual
//     T-join, solved by gadget reduction to minimum-weight perfect matching
//     (a remainder that already two-colors has an empty join and skips the
//     embedding, see detectShard);
//  3. re-check P against a two-coloring and add violators to the final
//     conflict set.
//
// The flow is sharded by conflict cluster — the connected components of the
// union of graph connectivity and the drawing's edge-crossing relation.
// Standard-cell layouts decompose into many small clusters; since both
// planarization and the matching solve are superlinear, k clusters of size
// n/k beat one monolithic solve of size n even sequentially, and clusters
// are independent so Options.Workers of them run concurrently.
//
// ctx is polled between flow steps and threaded into every shard's T-join
// matching hot loop, so a cancelled detection returns ctx.Err() promptly
// instead of finishing a potentially large matching instance.
func DetectContext(ctx context.Context, cg *ConflictGraph, opt Options) (*Detection, error) {
	det, _, err := detect(ctx, cg, nil, nil, false, opt)
	return det, err
}

// clusterRun is what one detection run leaves for the next: its crossing
// pairs and its result store. The store maps the clusterSignature bytes of
// every cluster with edges to that cluster's result, keyed by the full
// bytes, never by a hash. Detection options that change a result (T-join
// method, recheck mode) are not part of the key: a store is only read by
// runs under the options that filled it.
type clusterRun struct {
	crossPairs [][2]int
	store      map[string]*shardResult
}

// detect is the one detection routine behind DetectContext and every
// Incremental Detect. cross supplies the crossing-pair list (nil sweeps the
// whole drawing); prev is the previous generation's result store (nil when
// there is none). One pass over the partition decides every cluster with
// edges before any is built, with one rule: take the result prev holds under
// the cluster's signature bytes, or else the result of an earlier cluster of
// this run with equal bytes (it presents identical inputs to the
// deterministic detectShard), or else solve it. Only solved clusters are
// induced as standalone drawings, each inside the worker call that solves
// it. Results are merged in cluster order, so the Detection does not depend
// on the worker count or on which clusters were reused.
//
// exact is a restore's consistency check on prev: the run fails, before
// anything is solved, unless every cluster takes its result from prev and
// every entry of prev is taken.
func detect(ctx context.Context, cg *ConflictGraph, cross func() [][2]int, prev map[string]*shardResult, exact bool, opt Options) (*Detection, *clusterRun, error) {
	start := time.Now() //aapsmvet:allow determinism stage-timing telemetry only; durations land in Stats, never in results
	det := &Detection{Graph: cg}
	det.Stats.GraphNodes = cg.Nodes()
	det.Stats.GraphEdges = cg.Edges()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Step 1a: one crossing-pair list for the whole drawing; the greedy
	// removal itself happens per shard on it.
	if cross == nil {
		cross = func() [][2]int { return cg.Drawing.Crossings(opt.Workers) }
	}
	tCross := time.Now() //aapsmvet:allow determinism stage-timing telemetry only; durations land in Stats, never in results
	run := &clusterRun{crossPairs: cross()}
	det.Stats.CrossTime = time.Since(tCross)
	det.Stats.CrossingPairs = len(run.crossPairs)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	g := cg.Drawing.G
	labels, nShards := conflictClusters(g, run.crossPairs)
	parts, localOf := g.Partition(labels, nShards)

	// Distribute the crossing pairs into each cluster's local edge index
	// space. A crossing pair is always intra-cluster: clusters are closed
	// under the crossing relation by construction.
	localEdge := make([]int32, g.M())
	for _, p := range parts {
		for le, ge := range p.Edges {
			localEdge[ge] = int32(le)
		}
	}
	pairs := make([][][2]int, nShards)
	for _, p := range run.crossPairs {
		c := labels[g.Edge(p[0]).U]
		pairs[c] = append(pairs[c], [2]int{int(localEdge[p[0]]), int(localEdge[p[1]])})
	}

	// Decide every cluster. A cluster queued for a solve gets an empty
	// result in the store at once, which its solve fills in place, so a later
	// cluster with equal bytes takes it by pointer.
	run.store = make(map[string]*shardResult, len(prev))
	results := make([]*shardResult, nShards)
	fresh := make([]bool, nShards)
	shared := make(map[*shardResult]bool)
	var solve []int
	var buf []byte
	for c, p := range parts {
		if len(p.Edges) == 0 {
			continue
		}
		det.Stats.Shards++
		det.Stats.LargestShardEdges = max(det.Stats.LargestShardEdges, len(p.Edges))
		buf = clusterSignature(buf[:0], cg.Drawing, p, localOf, pairs[c])
		if r, ok := prev[string(buf)]; ok {
			run.store[r.sig] = r
			results[c] = r
			det.Stats.ReusedShards++
			continue
		}
		if r, ok := run.store[string(buf)]; ok {
			results[c] = r
			det.Stats.HierReusedShards++
			if !shared[r] {
				shared[r] = true
				det.Stats.HierSolvedShards++
			}
			continue
		}
		r := &shardResult{sig: string(buf)}
		run.store[r.sig] = r
		results[c] = r
		fresh[c] = true
		solve = append(solve, c)
	}
	if exact {
		if len(solve) > 0 {
			return nil, nil, fmt.Errorf("cluster %d misses the result store", solve[0])
		}
		if len(run.store) != len(prev) {
			return nil, nil, fmt.Errorf("%d of %d result store entries are taken by no cluster", len(prev)-len(run.store), len(prev))
		}
	}

	err := fanout.Run(ctx, len(solve), opt.Workers, func(ctx context.Context, k int) error {
		c := solve[k]
		build := func() *planar.Drawing { return cg.Drawing.Induce(parts[c], localOf) }
		r, err := detectShardSafe(ctx, c, build, pairs[c], opt)
		if err != nil {
			return shardErr(c, err)
		}
		r.sig = results[c].sig
		*results[c] = *r
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	if err := mergeShards(det, cg, parts, results, fresh); err != nil {
		return nil, nil, err
	}
	det.Stats.TotalTime = time.Since(start)
	return det, run, nil
}

// clusterSignature appends to buf a canonical byte form of one cluster's
// detection input, read from the parent drawing d through the cluster's
// partition part p (localOf is the partition's node map), so a cluster is
// signed without being built: node positions and bend points translated to
// the cluster's minimum corner, local edge endpoints and weights in edge
// order, and the crossing-pair list in local edge indices. Two clusters with
// equal signatures present identical inputs to detectShard; a rotated or
// reflected copy signs differently and solves on its own.
func clusterSignature(buf []byte, d *planar.Drawing, p graph.Part, localOf []int, pairs [][2]int) []byte {
	minX, minY := int64(1<<62), int64(1<<62)
	note := func(q geom.Point) {
		minX, minY = min(minX, q.X), min(minY, q.Y)
	}
	for _, v := range p.Nodes {
		note(d.Pos[v])
	}
	for _, e := range p.Edges {
		for _, q := range d.Bends[e] {
			note(q)
		}
	}
	buf = binary.AppendVarint(buf, int64(len(p.Nodes)))
	buf = binary.AppendVarint(buf, int64(len(p.Edges)))
	for _, v := range p.Nodes {
		buf = binary.AppendVarint(buf, d.Pos[v].X-minX)
		buf = binary.AppendVarint(buf, d.Pos[v].Y-minY)
	}
	for _, e := range p.Edges {
		ed := d.G.Edge(e)
		buf = binary.AppendVarint(buf, int64(localOf[ed.U]))
		buf = binary.AppendVarint(buf, int64(localOf[ed.V]))
		buf = binary.AppendVarint(buf, ed.Weight)
		bends := d.Bends[e]
		buf = binary.AppendVarint(buf, int64(len(bends)))
		for _, q := range bends {
			buf = binary.AppendVarint(buf, q.X-minX)
			buf = binary.AppendVarint(buf, q.Y-minY)
		}
	}
	buf = binary.AppendVarint(buf, int64(len(pairs)))
	for _, pr := range pairs {
		buf = binary.AppendVarint(buf, int64(pr[0]))
		buf = binary.AppendVarint(buf, int64(pr[1]))
	}
	return buf
}

// signatureEdges reads the edge count a clusterSignature encodes, reporting
// false for bytes that do not start with the node and edge counts.
func signatureEdges(sig []byte) (int64, bool) {
	_, k := binary.Varint(sig)
	if k <= 0 {
		return 0, false
	}
	n, k2 := binary.Varint(sig[k:])
	return n, k2 > 0
}

// ErrPanic marks a panic recovered inside a shard solver. A poisoned cluster
// fails its own detection — and the session memoizes the failure, so the
// session is quarantined — instead of crashing the process. Identify the
// case with errors.Is(err, ErrPanic).
var ErrPanic = errors.New("panic in shard solver")

// PanicError carries the recovered value and stack of a shard-solver panic.
// It unwraps to ErrPanic.
type PanicError struct {
	Cluster int
	Value   any
	Stack   string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: cluster %d: panic: %v", e.Cluster, e.Value)
}

func (e *PanicError) Unwrap() error { return ErrPanic }

// FaultHook, when non-nil, runs at the start of every shard solve. It exists
// for fault injection — tests and the aapsmd -chaos mode install hooks that
// panic to simulate a poisoned cluster — and must be safe for concurrent
// use. Production leaves it nil (one atomic load per shard).
var FaultHook atomic.Pointer[func()]

// detectShardSafe builds one cluster's drawing and solves it with panic
// isolation: a panic inside build, the solver or the fault hook is recovered
// into a *PanicError rather than tearing down the worker pool's process.
func detectShardSafe(ctx context.Context, cluster int, build func() *planar.Drawing, pairs [][2]int, opt Options) (res *shardResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Cluster: cluster, Value: v, Stack: string(debug.Stack())}
		}
	}()
	if f := FaultHook.Load(); f != nil {
		(*f)()
	}
	return detectShard(ctx, build(), pairs, opt, true)
}

// shardErr tags a shard failure with its cluster index; a *PanicError
// already carries it.
func shardErr(cluster int, err error) error {
	var pe *PanicError
	if errors.As(err, &pe) {
		return err
	}
	return fmt.Errorf("core: cluster %d: %w", cluster, err)
}

// mergeShards folds per-cluster results into det through the partition, in
// cluster order: parts[i].Edges maps cluster i's local edge indices to
// global ones. Size counters are summed over every result; stage durations
// are summed only over clusters marked in fresh, so a run reusing stored or
// shared results reports only the work it performed.
// It finishes with the bipartiteness self-check on the merged conflict set.
func mergeShards(det *Detection, cg *ConflictGraph, parts []graph.Part, results []*shardResult, fresh []bool) error {
	finalSet := make(map[int]bool)
	for i, r := range results {
		if r == nil {
			continue
		}
		eo := parts[i].Edges
		for _, le := range r.removed {
			det.CrossingsRemoved = append(det.CrossingsRemoved, eo[le])
		}
		for _, le := range r.bipart {
			det.BipartizationEdges = append(det.BipartizationEdges, eo[le])
		}
		for _, le := range r.final {
			finalSet[eo[le]] = true
		}
		det.Stats.DualNodes += r.dualNodes
		det.Stats.DualEdges += r.dualEdges
		det.Stats.OddFaces += r.oddFaces
		det.Stats.GadgetNodes += r.gadgetNodes
		det.Stats.GadgetEdges += r.gadgetEdges
		if fresh[i] {
			det.Stats.PlanarTime += r.planarTime
			det.Stats.EmbedTime += r.embedTime
			det.Stats.MatchTime += r.matchTime
			det.Stats.RecheckTime += r.recheckTime
		}
	}
	sort.Ints(det.BipartizationEdges)

	finals := make([]int, 0, len(finalSet))
	for e := range finalSet {
		finals = append(finals, e)
	}
	sort.Ints(finals)
	for _, ei := range finals {
		det.FinalConflicts = append(det.FinalConflicts, conflictFor(cg, ei))
	}

	// Self-check: removing the final conflicts must leave a bipartite graph.
	if _, ok := cg.Drawing.G.VerifyBipartition(finalSet); !ok {
		return fmt.Errorf("core: final conflict set does not bipartize the graph")
	}
	return nil
}

// conflictClusters partitions the graph's nodes into detection shards: the
// connected components of the union of graph adjacency and the drawing's
// crossing relation (two crossing edges are forced into one cluster). Every
// flow step — greedy crossing removal, dual T-join bipartization, and the
// step-3 recheck — only couples edges within one cluster, so clusters are
// detected independently and merged exactly.
//
// Isolated nodes (no incident edges) contribute nothing to detection, so
// they are all lumped into one trailing edge-less part instead of each
// materializing a shard drawing of their own; edge-bearing clusters keep
// their first-appearance node order.
func conflictClusters(g *graph.Graph, crossPairs [][2]int) ([]int, int) {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, e := range g.Edges() {
		union(e.U, e.V)
	}
	for _, p := range crossPairs {
		union(g.Edge(p[0]).U, g.Edge(p[1]).U)
	}
	hasEdge := make([]bool, g.N())
	for _, e := range g.Edges() {
		hasEdge[find(e.U)] = true
	}
	labels := make([]int, g.N())
	labelOf := make([]int, g.N())
	for i := range labelOf {
		labelOf[i] = -1
	}
	count := 0
	isolated := false
	for v := 0; v < g.N(); v++ {
		r := find(v)
		if !hasEdge[r] {
			labels[v] = -1 // resolved to the shared trailing part below
			isolated = true
			continue
		}
		if labelOf[r] < 0 {
			labelOf[r] = count
			count++
		}
		labels[v] = labelOf[r]
	}
	if isolated {
		for v := range labels {
			if labels[v] < 0 {
				labels[v] = count
			}
		}
		count++
	}
	return labels, count
}

// shardResult is one cluster's detection outcome in shard-local edge
// indices.
type shardResult struct {
	// sig is the result's key in a result store: the clusterSignature bytes
	// it was solved or restored under, kept so a later run's store takes the
	// same string instead of copying the bytes again.
	sig string

	removed []int // planarization-removed edges, removal order
	bipart  []int // optimal bipartization edges, ascending
	final   []int // final conflict edges (bipart + flagged removed), ascending

	dualNodes, dualEdges, oddFaces int
	gadgetNodes, gadgetEdges       int
	planarTime, embedTime          time.Duration
	matchTime, recheckTime         time.Duration
}

// lexScaleLimit bounds the weights for which the T-join input is rescaled to
// w*(m+1)+1. The rescaling makes the minimum-weight solution also minimal in
// edge count among minimum-weight solutions — pinning the conflict *count*
// to a unique value no matter how the solver breaks ties between equal
// weight optima. Rescaling is skipped (losing only that tie normalization,
// never correctness) when it could overflow downstream matching arithmetic.
const lexScaleLimit = int64(1) << 41

// detectShard runs flow steps 1b..3 on one conflict cluster.
//
// Step 2 has a fast path: a plane graph is bipartite iff it has no odd face
// (Hadlock), so when the planarized remainder two-colors, the dual has no
// terminals and its minimum T-join is empty. The embedding, the dual and the
// T-join solve are then skipped, and the dual's size is read off Euler's
// formula (bipartiteFaces), so the result, dual statistics included, is the
// one the full path gives; the gadget statistics are 0, as for a solve with
// no terminals. fast=false forces the full path (tests compare the two).
func detectShard(ctx context.Context, d *planar.Drawing, pairs [][2]int, opt Options, fast bool) (*shardResult, error) {
	r := &shardResult{}

	// Step 1b: greedy crossing removal on the precomputed pair list.
	t0 := time.Now() //aapsmvet:allow determinism stage-timing telemetry only; durations land in Stats, never in results
	r.removed = d.PlanarizeGiven(pairs)
	r.planarTime = time.Since(t0)
	m := d.G.M()
	removedSet := make([]bool, m)
	for _, e := range r.removed {
		removedSet[e] = true
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 2: optimal bipartization of the embedded planar remainder =
	// minimum T-join on its geometric dual with T = odd faces.
	bipartSet := make([]bool, m)
	t1 := time.Now() //aapsmvet:allow determinism stage-timing telemetry only; durations land in Stats, never in results
	if faces, ok := bipartiteFaces(d.G, removedSet); fast && ok {
		r.dualNodes, r.dualEdges = faces, m-len(r.removed)
		r.embedTime = time.Since(t1)
	} else if err := bipartizeDual(ctx, d, removedSet, bipartSet, r, opt); err != nil {
		return nil, err
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 3: the edges removed for planarity (P) may themselves close odd
	// cycles against the bipartized remainder.
	t3 := time.Now() //aapsmvet:allow determinism stage-timing telemetry only; durations land in Stats, never in results
	var err error
	r.final, err = recheck(d.G, r.removed, removedSet, bipartSet, opt.Recheck)
	if err != nil {
		return nil, err
	}
	r.recheckTime = time.Since(t3)
	return r, nil
}

// bipartizeDual is step 2's full path: embed d without the edges marked in
// removedSet, build the geometric dual and solve its minimum T-join, marking
// the chosen primal edges in bipartSet and recording them, the dual and
// gadget sizes and the stage times in r. The drawing was just planarized, so
// the defensive crossing re-scan of BuildEmbedding is skipped.
func bipartizeDual(ctx context.Context, d *planar.Drawing, removedSet, bipartSet []bool, r *shardResult, opt Options) error {
	t1 := time.Now() //aapsmvet:allow determinism stage-timing telemetry only; durations land in Stats, never in results
	planarDrawing, oldIdx := d.WithoutEdgeSet(removedSet)
	em, err := planar.BuildEmbeddingUnchecked(planarDrawing)
	if err != nil {
		return fmt.Errorf("embedding after planarization: %w", err)
	}
	dual, primalOf, T := em.Dual()
	r.embedTime = time.Since(t1)
	r.dualNodes = dual.N()
	r.dualEdges = dual.M()
	r.oddFaces = len(T)

	// Lexicographic (weight, count) rescaling; see lexScaleLimit.
	scaleK := int64(dual.M()) + 1
	scaled := true
	edges := dual.Edges()
	for _, e := range edges {
		if e.Weight > lexScaleLimit/scaleK {
			scaled = false
			break
		}
	}
	if scaled {
		for i := range edges {
			edges[i].Weight = edges[i].Weight*scaleK + 1
		}
	}

	t2 := time.Now() //aapsmvet:allow determinism stage-timing telemetry only; durations land in Stats, never in results
	join, err := tjoin.SolveContext(ctx, dual, T, opt.TJoin)
	if err != nil {
		return fmt.Errorf("dual T-join: %w", err)
	}
	r.matchTime = time.Since(t2)
	r.gadgetNodes = join.GadgetNodes
	r.gadgetEdges = join.GadgetEdges

	for _, de := range join.Edges {
		orig := oldIdx[primalOf[de]]
		r.bipart = append(r.bipart, orig)
		bipartSet[orig] = true
	}
	sort.Ints(r.bipart)
	return nil
}

// bipartiteFaces reports whether g without the edges marked in skip is
// bipartite and, when it is, the number of faces
// planar.BuildEmbeddingUnchecked traces on its plane drawing. That count is
// Euler's formula as the tracer applies it: every connected component with
// an edge has its own outer face, even one drawn inside another's face, and
// an isolated node has none. So F = E - V + 2C, counting only the nodes and
// components that keep an edge. One parity union-find pass over the kept
// edges decides both.
func bipartiteFaces(g *graph.Graph, skip []bool) (int, bool) {
	uf := graph.NewParityUF(g.N())
	touched := make([]bool, g.N())
	edges := 0
	for ei, e := range g.Edges() {
		if skip[ei] {
			continue
		}
		if e.U == e.V || !uf.UnionDiffer(e.U, e.V) {
			return 0, false
		}
		edges++
		touched[e.U], touched[e.V] = true, true
	}
	nodes, comps := 0, 0
	for v, t := range touched {
		if !t {
			continue
		}
		nodes++
		if root, _ := uf.Find(v); root == v {
			comps++
		}
	}
	return edges - nodes + 2*comps, true
}

// recheck implements flow step 3 on one cluster's graph: decide which
// planarization-removed edges are real conflicts on top of the
// bipartization set, returning the final conflict edges ascending.
// removedSet and bipartSet are indexed by edge.
func recheck(g *graph.Graph, removed []int, removedSet, bipartSet []bool, mode RecheckMode) ([]int, error) {
	flagged := make([]bool, g.M())
	switch mode {
	case RecheckParity:
		// Improvement over the paper: re-admit P members from heaviest to
		// lightest into a parity union-find seeded with the kept edges;
		// only edges that genuinely close an odd cycle become conflicts.
		uf := graph.NewParityUF(g.N())
		for ei, e := range g.Edges() {
			if removedSet[ei] || bipartSet[ei] {
				continue
			}
			if e.U == e.V || !uf.UnionDiffer(e.U, e.V) {
				return nil, fmt.Errorf("core: bipartization left an odd cycle at edge %d", ei)
			}
		}
		orderedP := append([]int(nil), removed...)
		sort.Slice(orderedP, func(a, b int) bool {
			wa, wb := g.Edge(orderedP[a]).Weight, g.Edge(orderedP[b]).Weight
			if wa != wb {
				return wa > wb
			}
			return orderedP[a] < orderedP[b]
		})
		for _, ei := range orderedP {
			e := g.Edge(ei)
			if e.U == e.V || !uf.UnionDiffer(e.U, e.V) {
				flagged[ei] = true
			}
		}
	default: // RecheckColoring — the paper's flow step 3
		drop := make([]bool, g.M())
		for ei := range drop {
			drop[ei] = removedSet[ei] || bipartSet[ei]
		}
		colors, ok := g.TwoColorWithoutEdges(drop)
		if !ok {
			return nil, fmt.Errorf("core: bipartization left an odd cycle")
		}
		for _, ei := range removed {
			e := g.Edge(ei)
			if e.U == e.V || colors[e.U] == colors[e.V] {
				flagged[ei] = true
			}
		}
	}
	final := make([]int, 0, len(removed))
	for ei := 0; ei < g.M(); ei++ {
		if bipartSet[ei] || flagged[ei] {
			final = append(final, ei)
		}
	}
	return final, nil
}

func conflictFor(cg *ConflictGraph, edge int) Conflict {
	m := cg.Meta[edge]
	c := Conflict{Edge: edge, Meta: m}
	if m.Kind == OverlapEdge {
		c.Deficit = cg.Set.Overlaps[m.Overlap].Deficit
	}
	return c
}

// ConflictEdgeSet returns the final conflict edges as a set, for graph
// operations.
func (d *Detection) ConflictEdgeSet() map[int]bool {
	s := make(map[int]bool, len(d.FinalConflicts))
	for _, c := range d.FinalConflicts {
		s[c.Edge] = true
	}
	return s
}

// GreedyDetect runs the Table 1 "GB" baseline on the same graph: greedy
// bipartization by descending edge weight with a parity union-find.
func GreedyDetect(cg *ConflictGraph) *Detection {
	det := &Detection{Graph: cg}
	det.Stats.GraphNodes = cg.Nodes()
	det.Stats.GraphEdges = cg.Edges()
	start := time.Now() //aapsmvet:allow determinism stage-timing telemetry only; durations land in Stats, never in results
	for _, ei := range graph.GreedyBipartization(cg.Drawing.G) {
		det.FinalConflicts = append(det.FinalConflicts, conflictFor(cg, ei))
	}
	det.Stats.TotalTime = time.Since(start)
	return det
}
