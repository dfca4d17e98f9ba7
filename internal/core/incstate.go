package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/shifter"
)

// This file defines the exported, serialization-stable view of an
// Incremental engine's state — the contract of the persistence subsystem
// (internal/persist). It names features by layout index, never by engine
// uid, and holds the layout, overlap pairs, crossing pairs, result store and
// DRC cache. Restore re-enters the engine's own Detect body with the
// serialized crossing pairs in place of the sweep and the serialized store
// as the previous generation's, so everything else is rebuilt by the code a
// live Detect runs, and a snapshot that disagrees with that rebuild is
// rejected.

// PairState is one shifter-overlap constraint in wire form: the two
// flanking shifters, named by (feature index, side), and the spacing
// deficit between them.
type PairState struct {
	FeatA   int32
	SideA   uint8
	FeatB   int32
	SideB   uint8
	Deficit int64
}

// ShardState is one entry of the result store: a cluster's signature bytes
// (clusterSignature) and the detection outcome every cluster with those bytes
// takes, in cluster-local edge indices. Stage durations are intentionally not
// part of the state: a reused cluster's durations are never summed into a
// Detection's stats (only freshly solved clusters report time), so they are
// dead weight in a snapshot.
type ShardState struct {
	Sig     []byte
	Removed []int32
	Bipart  []int32
	Final   []int32

	DualNodes, DualEdges, OddFaces int
	GadgetNodes, GadgetEdges       int
}

// IncrementalState is the complete primary state of an Incremental engine.
// Exported by ExportState, consumed by RestoreIncremental; the persist
// package owns its byte-level encoding.
type IncrementalState struct {
	LayoutName string
	Features   []layout.Feature

	// Hierarchy sidecar of the working layout (all empty when flat): layout
	// provenance that detection does not read.
	HierCells           []string
	HierPlacementCell   []int32
	HierFeatureInstance []int32

	// Last committed detection, present when HasPrev: the overlap pairs it
	// was built from (in engine order), its crossing pairs, and its result
	// store, one entry per distinct cluster signature in ascending byte
	// order.
	HasPrev    bool
	Pairs      []PairState
	CrossPairs [][2]int32
	Shards     []ShardState
	DetStats   Stats

	// Incremental DRC cache, by feature index.
	DRCReady bool
	DRCPairs [][2]int32 // violating feature pairs, A < B, ascending
	DRCDirty []int32    // features edited since the last DRC, ascending

	Stats IncStats
}

// ExportState deep-copies the engine's primary state into its wire form.
// The caller must hold whatever lock serializes access to the engine (the
// Session layer's mutex).
//
// An engine with pending, uncommitted edits (dirty or deleted features since
// the last successful Detect) exports a degraded state: the cached detection
// and the overlap-pair records describe the layout as of the last commit,
// whose geometry is no longer recoverable from the working copy (it was
// mutated in place), so they are dropped and the restored engine's first
// Detect runs in full. The DRC cache has no such dependency — violating
// pairs are re-validated against current geometry — so it survives export in
// either case, less the pairs of deleted features, which the next DRC would
// drop anyway.
func (inc *Incremental) ExportState() *IncrementalState {
	st := &IncrementalState{
		LayoutName: inc.lay.Name,
		Features:   append([]layout.Feature(nil), inc.lay.Features...),
		DRCReady:   inc.drcReady,
		Stats:      inc.stats,
	}
	if h := inc.lay.Hier; h != nil {
		st.HierCells = append([]string(nil), h.Cells...)
		st.HierPlacementCell = append([]int32(nil), h.PlacementCell...)
		st.HierFeatureInstance = append([]int32(nil), h.FeatureInstance...)
	}
	for key := range inc.drcPairs {
		a, b := inc.featOf[int32(key>>32)], inc.featOf[int32(uint32(key))]
		if a < 0 || b < 0 {
			continue
		}
		st.DRCPairs = append(st.DRCPairs, [2]int32{min(a, b), max(a, b)})
	}
	slices.SortFunc(st.DRCPairs, func(p, q [2]int32) int {
		return cmp.Or(cmp.Compare(p[0], q[0]), cmp.Compare(p[1], q[1]))
	})
	for uid := range inc.drcDirty {
		st.DRCDirty = append(st.DRCDirty, inc.featOf[uid])
	}
	slices.Sort(st.DRCDirty)

	snap := inc.prev
	if snap == nil || len(inc.dirty) > 0 || len(inc.deleted) > 0 {
		return st
	}
	st.HasPrev = true
	st.Pairs = make([]PairState, len(inc.pairs))
	for i, rec := range inc.pairs {
		st.Pairs[i] = PairState{
			FeatA: inc.featOf[rec.uidA], SideA: uint8(rec.sideA),
			FeatB: inc.featOf[rec.uidB], SideB: uint8(rec.sideB),
			Deficit: rec.deficit,
		}
	}
	st.CrossPairs = make([][2]int32, len(snap.crossPairs))
	for i, p := range snap.crossPairs {
		st.CrossPairs[i] = [2]int32{int32(p[0]), int32(p[1])}
	}
	sigs := make([]string, 0, len(snap.store))
	for sig := range snap.store {
		sigs = append(sigs, sig)
	}
	slices.Sort(sigs)
	st.Shards = make([]ShardState, len(sigs))
	for i, sig := range sigs {
		r := snap.store[sig]
		st.Shards[i] = ShardState{
			Sig:       []byte(sig),
			Removed:   toInt32(r.removed),
			Bipart:    toInt32(r.bipart),
			Final:     toInt32(r.final),
			DualNodes: r.dualNodes, DualEdges: r.dualEdges, OddFaces: r.oddFaces,
			GadgetNodes: r.gadgetNodes, GadgetEdges: r.gadgetEdges,
		}
	}
	st.DetStats = snap.det.Stats
	return st
}

// RestoreStats overwrites the engine's cumulative work counters. The restore
// flow re-runs previously memoized pipeline stages to rebuild their values,
// which bumps counters the original session already accounted for; callers
// erase that noise by restoring the serialized counters afterwards.
func (inc *Incremental) RestoreStats(s IncStats) { inc.stats = s }

// RestoreIncremental reconstructs an Incremental engine from its exported
// state under the given configuration: NewIncremental on the serialized
// layout, a range-checked DRC cache, overlap pairs checked against the
// layout's own shifters (each must overlap with the stored deficit, and
// appear once), and, when the state carries a committed detection, the
// Detect body seeded with it. That run signs the partition it derives and
// takes every cluster's result from the serialized store; it fails before
// any solve when a cluster misses the store or an entry is taken by no
// cluster, and ends with the bipartiteness self-check. ctx bounds that
// rebuild.
func RestoreIncremental(ctx context.Context, st *IncrementalState, r layout.Rules, kind GraphKind, opt Options) (*Incremental, error) {
	l := &layout.Layout{Name: st.LayoutName, Features: st.Features}
	if len(st.HierCells) > 0 || len(st.HierPlacementCell) > 0 || len(st.HierFeatureInstance) > 0 {
		l.Hier = &layout.Hierarchy{
			Cells:           st.HierCells,
			PlacementCell:   st.HierPlacementCell,
			FeatureInstance: st.HierFeatureInstance,
		}
		if err := l.Hier.Validate(len(l.Features)); err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
	}
	// NewIncremental deep-copies the layout and numbers the features' uids
	// by index, so from here on a feature index is also its uid.
	inc, err := NewIncremental(l, r, kind, opt)
	if err != nil {
		return nil, err
	}
	nf := int32(len(st.Features))
	inc.pairs = make([]pairRec, len(st.Pairs))
	seen := make(map[edgeKey]bool, len(st.Pairs))
	for i, p := range st.Pairs {
		if p.SideA > 1 || p.SideB > 1 {
			return nil, fmt.Errorf("core: restore: pair %d has invalid shifter side", i)
		}
		var flanks [2][2]geom.Rect
		for j, fi := range [2]int32{p.FeatA, p.FeatB} {
			if fi < 0 || fi >= nf {
				return nil, fmt.Errorf("core: restore: pair %d references feature %d outside [0,%d)", i, fi, nf)
			}
			if !r.IsCritical(l.Features[fi]) {
				return nil, fmt.Errorf("core: restore: pair %d references non-critical feature %d", i, fi)
			}
			flanks[j][0], flanks[j][1] = shifter.Flanks(l.Features[fi], r)
		}
		if p.FeatA == p.FeatB {
			return nil, fmt.Errorf("core: restore: pair %d joins the two flanks of feature %d", i, p.FeatA)
		}
		deficit, ok := shifter.OverlapDeficit(flanks[0][p.SideA], flanks[1][p.SideB], r)
		if !ok {
			return nil, fmt.Errorf("core: restore: pair %d names shifters that do not overlap", i)
		}
		if deficit != p.Deficit {
			return nil, fmt.Errorf("core: restore: pair %d stores deficit %d, its shifters give %d", i, p.Deficit, deficit)
		}
		key := edgeKey{uidA: p.FeatA, sideA: shifter.Side(p.SideA), uidB: p.FeatB, sideB: shifter.Side(p.SideB)}
		if key.uidA > key.uidB {
			key = edgeKey{uidA: key.uidB, sideA: key.sideB, uidB: key.uidA, sideB: key.sideA}
		}
		if seen[key] {
			return nil, fmt.Errorf("core: restore: pair %d repeats an earlier pair", i)
		}
		seen[key] = true
		inc.pairs[i] = pairRec{
			uidA: p.FeatA, uidB: p.FeatB,
			sideA: shifter.Side(p.SideA), sideB: shifter.Side(p.SideB),
			deficit: p.Deficit,
		}
	}

	inc.drcReady = st.DRCReady
	for _, p := range st.DRCPairs {
		if p[0] < 0 || p[0] >= nf || p[1] < 0 || p[1] >= nf {
			return nil, fmt.Errorf("core: restore: drc pair (%d,%d) references a feature outside [0,%d)", p[0], p[1], nf)
		}
		inc.drcPairs[packUIDPair(p[0], p[1])] = true
	}
	for _, fi := range st.DRCDirty {
		if fi < 0 || fi >= nf {
			return nil, fmt.Errorf("core: restore: drc dirty feature %d outside [0,%d)", fi, nf)
		}
		inc.drcDirty[fi] = true
	}

	if st.HasPrev {
		seed, err := st.seed()
		if err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
		det, err := inc.runDetect(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
		// A seeded detect reuses every cluster and times no solve, so the
		// whole Stats block, counters included, is the snapshot's.
		det.Stats = st.DetStats
	}
	inc.stats = st.Stats
	return inc, nil
}

// seed converts a state's crossing pairs and result store into the run a
// restore's Detect reads. It rejects a repeated signature, and a result
// naming a local edge outside [0, n) where n is the edge count its
// signature encodes.
func (st *IncrementalState) seed() (*clusterRun, error) {
	run := &clusterRun{
		crossPairs: make([][2]int, len(st.CrossPairs)),
		store:      make(map[string]*shardResult, len(st.Shards)),
	}
	for i, p := range st.CrossPairs {
		run.crossPairs[i] = [2]int{int(p[0]), int(p[1])}
	}
	for i, sh := range st.Shards {
		sig := string(sh.Sig)
		if _, dup := run.store[sig]; dup {
			return nil, fmt.Errorf("result store entry %d repeats an earlier signature", i)
		}
		edges, ok := signatureEdges(sh.Sig)
		if !ok {
			return nil, fmt.Errorf("result store entry %d has a malformed signature", i)
		}
		r := &shardResult{
			sig:       sig,
			dualNodes: sh.DualNodes, dualEdges: sh.DualEdges, oddFaces: sh.OddFaces,
			gadgetNodes: sh.GadgetNodes, gadgetEdges: sh.GadgetEdges,
		}
		for _, field := range [3]struct {
			src []int32
			dst *[]int
		}{{sh.Removed, &r.removed}, {sh.Bipart, &r.bipart}, {sh.Final, &r.final}} {
			local := make([]int, len(field.src))
			for j, le := range field.src {
				if le < 0 || int64(le) >= edges {
					return nil, fmt.Errorf("result store entry %d names local edge %d outside [0,%d)", i, le, edges)
				}
				local[j] = int(le)
			}
			*field.dst = local
		}
		run.store[sig] = r
	}
	return run, nil
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}
