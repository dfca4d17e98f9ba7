package core

import (
	"encoding/binary"

	"repro/internal/geom"
	"repro/internal/planar"
)

// The instance-aware fast path: layouts flattened from a cell hierarchy
// carry a layout.Hierarchy sidecar tagging each feature with the top-level
// placement it was expanded from. Repeated placements of the same cell
// produce conflict clusters that are exact translations of each other, so
// the expensive planarize → bipartize → recheck pipeline needs to run only
// once per distinct cluster shape and the result can be spliced in for
// every other placement through each cluster's own edge index map.
//
// Correctness is unconditional and does not rest on the instance tags:
// two clusters share a solve only when their canonical signatures — the
// full drawing structure translated to the origin, edge weights, bend
// points and crossing-pair lists — are byte-identical, which makes their
// detectShard inputs identical and the solver deterministic on them. The
// tags only gate which clusters are *candidates* (clusters confined to one
// placement), so stale tags after edits can cost reuse but never
// correctness, and rotated or reflected placements simply hash differently
// and solve flat.

// hierPlan is the reuse plan for one detection run.
type hierPlan struct {
	// rep[c] >= 0 names the cluster whose solved result cluster c shares;
	// -1 means cluster c solves (or merges) on its own.
	rep []int32
	// reused counts clusters receiving a shared result, solved counts the
	// distinct representatives solved for instance-pure clusters, and
	// fallback counts clusters that cross instance boundaries and therefore
	// solve flat.
	reused, solved, fallback int
}

// hierDedupPlan groups the instance-pure shard jobs by canonical signature.
// labels is the node→cluster map; jobs must be fully populated (a full
// detect: every non-empty cluster has a job). Returns nil when the graph
// carries no hierarchy or nothing is eligible.
func hierDedupPlan(cg *ConflictGraph, labels []int, nShards int, jobs []shardJob) *hierPlan {
	h := cg.Hier
	if h == nil || nShards == 0 {
		return nil
	}
	// Fold each feature's placement tag into its cluster, over the shifters
	// in index order (shifter i is graph node i; both flanks of a feature
	// share its feature edge, hence its cluster): -2 = no features seen
	// yet, -1 = mixed instances or top-level geometry, >= 0 = every feature
	// so far belongs to that one placement. placed records whether any
	// feature of the cluster carries a placement tag, which separates a
	// genuine instance-boundary fallback from purely top-level geometry.
	inst := make([]int32, nShards)
	for c := range inst {
		inst[c] = -2
	}
	placed := make([]bool, nShards)
	for i, sh := range cg.Set.Shifters {
		c := labels[i]
		tag := int32(-1)
		if sh.Feature < len(h.FeatureInstance) {
			tag = h.FeatureInstance[sh.Feature]
		}
		placed[c] = placed[c] || tag >= 0
		switch {
		case inst[c] == -2:
			inst[c] = tag
		case inst[c] != tag:
			inst[c] = -1
		}
	}
	plan := &hierPlan{rep: make([]int32, nShards)}
	for c := range plan.rep {
		plan.rep[c] = -1
	}
	repBySig := make(map[string]int32)
	any := false
	for c := 0; c < nShards; c++ {
		if jobs[c].d == nil || jobs[c].d.G.M() == 0 {
			continue
		}
		if inst[c] < 0 {
			if placed[c] {
				plan.fallback++
			}
			continue
		}
		sig := clusterSignature(jobs[c].d, jobs[c].pairs)
		if r, ok := repBySig[sig]; ok {
			plan.rep[c] = r
			plan.reused++
		} else {
			repBySig[sig] = int32(c)
			plan.solved++
		}
		any = true
	}
	if !any {
		return nil
	}
	return plan
}

// blankDuplicates clears the jobs of clusters that will reuse a
// representative's result, so runShards skips them.
func (p *hierPlan) blankDuplicates(jobs []shardJob) {
	for c, r := range p.rep {
		if r >= 0 {
			jobs[c] = shardJob{}
		}
	}
}

// spliceResults copies each representative's solved result onto its
// duplicates and marks the duplicates stale in fresh (so merge-time
// duration accounting counts the solve once).
func (p *hierPlan) spliceResults(results []*shardResult, fresh []bool) {
	for c, r := range p.rep {
		if r >= 0 {
			results[c] = results[r]
			fresh[c] = false
		}
	}
}

// clusterSignature canonicalizes one cluster's detection input into a byte
// string: node positions and bend points translated to the cluster's
// minimum corner, edge endpoints and weights in edge order, and the
// crossing-pair list. Two clusters with equal signatures present identical
// inputs to detectShard.
func clusterSignature(d *planar.Drawing, pairs [][2]int) string {
	g := d.G
	n, m := g.N(), g.M()
	minX, minY := int64(1<<62), int64(1<<62)
	note := func(p geom.Point) {
		if p.X < minX {
			minX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
	}
	for _, p := range d.Pos[:n] {
		note(p)
	}
	for e := 0; e < m; e++ {
		for _, p := range d.Bends[e] {
			note(p)
		}
	}
	buf := make([]byte, 0, 16*(n+m)+8*len(pairs))
	buf = binary.AppendVarint(buf, int64(n))
	buf = binary.AppendVarint(buf, int64(m))
	for _, p := range d.Pos[:n] {
		buf = binary.AppendVarint(buf, p.X-minX)
		buf = binary.AppendVarint(buf, p.Y-minY)
	}
	for e := 0; e < m; e++ {
		ed := g.Edge(e)
		buf = binary.AppendVarint(buf, int64(ed.U))
		buf = binary.AppendVarint(buf, int64(ed.V))
		buf = binary.AppendVarint(buf, ed.Weight)
		bends := d.Bends[e]
		buf = binary.AppendVarint(buf, int64(len(bends)))
		for _, p := range bends {
			buf = binary.AppendVarint(buf, p.X-minX)
			buf = binary.AppendVarint(buf, p.Y-minY)
		}
	}
	buf = binary.AppendVarint(buf, int64(len(pairs)))
	for _, pr := range pairs {
		buf = binary.AppendVarint(buf, int64(pr[0]))
		buf = binary.AppendVarint(buf, int64(pr[1]))
	}
	return string(buf)
}
