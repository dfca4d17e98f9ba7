package core

import (
	"fmt"
	"sort"

	"repro/internal/drc"
)

// This file extends the incremental edit-and-re-detect engine through the
// rest of the paper's pipeline. Detection already reuses per-cluster shard
// results; the downstream stages reuse along the same cluster structure:
//
//   - AssignPhases copies the previous generation's two-coloring for every
//     clean cluster (coloring decomposes exactly over conflict clusters,
//     because clusters are unions of connected components) and re-colors
//     only dirty clusters with the same BFS the from-scratch path uses.
//   - DirtyScope exposes per-feature / per-overlap dirty filters, so the
//     Session layer re-verifies assignment constraints and re-validates mask
//     consistency only inside touched clusters.
//   - CutValid answers correction cut-legality queries from span indexes
//     maintained across edits instead of a per-query feature scan, and
//     OverlapUID gives corrections a stable cache key per conflict.
//   - DRC keeps the set of violating feature pairs keyed by stable uids and
//     re-probes only the geometric neighborhood of edited features.
//
// Every path is bit-identical to its from-scratch counterpart; the
// differential harness (TestIncrementalDifferential) enforces this per stage
// after every step of its edit scripts.

// Gen returns the detection generation: 0 before the first Detect, then
// incremented by every successful Detect that followed pending edits. Stage
// caches outside core (mask validation, constraint verification) key their
// "last known clean" state to a generation and pass it to DirtyScope.
func (inc *Incremental) Gen() int { return inc.gen }

// AssignPhases returns the phase assignment of the last Detect's result,
// bit-identical to core.AssignPhases on the same Detection. Clean clusters
// take their node colors from the previous generation's coloring through the
// survivor node map; only dirty clusters are re-colored.
func (inc *Incremental) AssignPhases() (*Assignment, error) {
	snap := inc.prev
	if snap == nil {
		return nil, fmt.Errorf("core: incremental AssignPhases before Detect")
	}
	det := snap.det
	g := det.Graph.Drawing.G
	n := g.N()
	colors := make([]int8, n)
	for i := range colors {
		colors[i] = -1
	}

	// Seed clean clusters from the cached coloring of the previous
	// generation. Sound because a clean cluster's subgraph, node order, edge
	// order and final-conflict subset are all preserved by the transition, so
	// the from-scratch BFS would reproduce exactly the mapped colors.
	if inc.assignGen == snap.gen-1 && snap.newToOldNode != nil {
		for v := 0; v < n; v++ {
			if snap.solved[snap.labels[v]] {
				continue
			}
			if ov := snap.newToOldNode[v]; ov >= 0 && ov < len(inc.prevColors) {
				colors[v] = inc.prevColors[ov]
			}
		}
	}
	seeded := make([]bool, snap.nShards)
	unseeded := make([]bool, snap.nShards)
	for v := 0; v < n; v++ {
		if colors[v] >= 0 {
			seeded[snap.labels[v]] = true
		} else {
			unseeded[snap.labels[v]] = true
		}
	}

	// Color the remaining nodes with the same traversal the from-scratch
	// path uses (TwoColorWithoutEdges is this call on an all-uncolored
	// seed), skipping the final conflict edges. BFS never crosses cluster
	// boundaries, so seeded clusters stay untouched.
	skip := make([]bool, g.M())
	for _, c := range det.FinalConflicts {
		skip[c.Edge] = true
	}
	if _, ok := g.TwoColorWithoutEdgesFrom(skip, colors); !ok {
		return nil, errNotBipartite
	}
	for c := 0; c < snap.nShards; c++ {
		switch {
		case unseeded[c]:
			inc.stats.AssignClustersSolved++
		case seeded[c]:
			inc.stats.AssignClustersReused++
		}
	}
	inc.prevColors = colors
	inc.assignGen = snap.gen
	return assignmentFromColors(det, colors), nil
}

// DirtyScope returns filters marking the features and overlaps whose
// conflict cluster was re-solved by the transition into the current
// generation. It reports ok only when that transition kept survivor maps AND
// the caller's cached state is exactly one generation old (sinceGen ==
// Gen()-1) — otherwise the dirty information does not cover the full gap and
// the caller must redo its work in full.
func (inc *Incremental) DirtyScope(sinceGen int) (featDirty, ovDirty func(int) bool, ok bool) {
	snap := inc.prev
	if snap == nil || snap.newToOldNode == nil || sinceGen != snap.gen-1 {
		return nil, nil, false
	}
	featDirty = func(fi int) bool {
		if fi < 0 || fi >= len(snap.featCluster) {
			return true
		}
		c := snap.featCluster[fi]
		return c < 0 || snap.solved[c]
	}
	ovDirty = func(oi int) bool {
		if oi < 0 || oi >= len(snap.ovCluster) {
			return true
		}
		return snap.solved[snap.ovCluster[oi]]
	}
	return featDirty, ovDirty, true
}

// OverlapUID returns the stable identity of overlap index oi in the current
// detection. The identity names the two flanking (feature uid, side) pairs;
// it survives edits elsewhere in the layout and dies as soon as either
// feature is touched, which makes it a sound cache key for any value derived
// only from the two features' geometry (correction intervals).
func (inc *Incremental) OverlapUID(oi int) (int32, bool) {
	if inc.prev == nil || oi < 0 || oi >= len(inc.prev.ovUID) {
		return 0, false
	}
	return inc.prev.ovUID[oi], true
}

// CutValid reports whether an end-to-end cut at pos only stretches feature
// lengths, answered from the span indexes maintained across edits. Matches
// correct.NewCutChecker on the engine's current layout exactly.
func (inc *Incremental) CutValid(vertical bool, pos int64) bool {
	if vertical {
		return !inc.cutV.Stab(pos)
	}
	return !inc.cutH.Stab(pos)
}

// AddReuse accumulates downstream-stage reuse counters measured by the
// Session layer (verification, correction intervals, mask checks) into the
// engine's cumulative stats. Only the counter fields of delta are used.
func (inc *Incremental) AddReuse(delta IncStats) {
	inc.stats.VerifyChecksReused += delta.VerifyChecksReused
	inc.stats.VerifyChecksSolved += delta.VerifyChecksSolved
	inc.stats.CorrIntervalsReused += delta.CorrIntervalsReused
	inc.stats.CorrIntervalsSolved += delta.CorrIntervalsSolved
	inc.stats.MaskChecksReused += delta.MaskChecksReused
	inc.stats.MaskChecksSolved += delta.MaskChecksSolved
}

// packUIDPair normalizes a feature-uid pair into one map key.
func packUIDPair(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// DRC runs the design-rule checks on the engine's current layout,
// bit-identical to drc.Check. Width checks are a plain scan (O(1) per
// feature); the spacing pairs — the expensive geometric part — are kept as a
// violating-pair set keyed by stable feature uids: a re-check drops pairs
// touching edited or deleted features, probes only the edited features'
// geometric neighborhoods, and carries every other cached pair over.
func (inc *Incremental) DRC() []drc.Violation {
	r := inc.rules
	var out []drc.Violation
	for i, f := range inc.lay.Features {
		if v, bad := drc.WidthViolation(i, f, r); bad {
			out = append(out, v)
		}
	}

	if !inc.drcReady {
		// First run (or recovery): seed the pair set from the same full
		// enumeration drc.Check performs.
		inc.drcPairs = make(map[uint64]bool)
		checked := drc.ForEachSpacingViolation(inc.lay, r, func(i, j int32, _ drc.Violation) {
			inc.drcPairs[packUIDPair(inc.featUID[i], inc.featUID[j])] = true
		})
		inc.stats.DRCPairsSolved += checked
	} else if len(inc.drcDirty) > 0 || len(inc.drcDel) > 0 {
		touched := func(uid int32) bool { return inc.drcDirty[uid] || inc.drcDel[uid] }
		for key := range inc.drcPairs {
			if touched(int32(key>>32)) || touched(int32(uint32(key))) {
				delete(inc.drcPairs, key)
			}
		}
		inc.stats.DRCPairsReused += len(inc.drcPairs)
		// Probe each edited feature's neighborhood; (dirty, dirty) pairs are
		// deduplicated by handling them from the lower current index.
		dirtyIdx := make([]int, 0, len(inc.drcDirty))
		for uid := range inc.drcDirty {
			if fi := inc.featOf[uid]; fi >= 0 {
				dirtyIdx = append(dirtyIdx, int(fi))
			}
		}
		sort.Ints(dirtyIdx)
		checked := 0
		for _, fi := range dirtyIdx {
			f := inc.lay.Features[fi]
			fUID := inc.featUID[fi]
			inc.grid.Query(f.Rect.Expand(r.MinFeatureSpacing+1), nil, func(gUID int32) {
				gi := inc.featOf[gUID]
				if gi < 0 || int(gi) == fi {
					return
				}
				if inc.drcDirty[gUID] && int(gi) < fi {
					return // handled from the other side
				}
				checked++
				if _, bad := drc.SpacingViolation(fi, int(gi), f.Rect, inc.lay.Features[gi].Rect, r); bad {
					inc.drcPairs[packUIDPair(fUID, gUID)] = true
				}
			})
		}
		inc.stats.DRCPairsSolved += checked
	} else {
		inc.stats.DRCPairsReused += len(inc.drcPairs)
	}

	// Emit the spacing violations in drc.Check's canonical ascending (A, B)
	// order, re-deriving each record from current indices and rectangles.
	type idxPair struct{ a, b int }
	pairs := make([]idxPair, 0, len(inc.drcPairs))
	for key := range inc.drcPairs {
		a := int(inc.featOf[int32(key>>32)])
		b := int(inc.featOf[int32(uint32(key))])
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, idxPair{a, b})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for _, p := range pairs {
		v, bad := drc.SpacingViolation(p.a, p.b, inc.lay.Features[p.a].Rect, inc.lay.Features[p.b].Rect, r)
		if !bad {
			// A cached pair no longer violates: a reuse invariant broke.
			// Recover with a full check rather than serve a wrong result.
			inc.stats.FallbackDirty++
			inc.drcReady = false
			inc.drcDirty = make(map[int32]bool)
			inc.drcDel = make(map[int32]bool)
			return inc.DRC()
		}
		out = append(out, v)
	}
	inc.drcReady = true
	inc.drcDirty = make(map[int32]bool)
	inc.drcDel = make(map[int32]bool)
	return out
}
