package core

import (
	"sort"

	"repro/internal/drc"
)

// This file holds the one piece of incremental state the engine keeps for
// the stages after detection, the only one whose reuse pays for itself:
// DRC keeps the set of violating feature pairs keyed by stable uids and
// re-probes only the geometric neighborhood of edited features.
//
// Phase assignment, its verification, correction (cut legality included)
// and mask validation are linear or n log n passes next to the cluster
// solve, so the Session layer runs them from scratch on every generation.
// The DRC path here is bit-identical to drc.Check; the differential harness
// (TestIncrementalDifferential) enforces this after every step of its edit
// scripts.

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
