package core

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/shifter"
)

// This file defines the exported, serialization-stable view of an
// Incremental engine's state — the contract of the persistence subsystem
// (internal/persist). Only primary state is exported: everything that a
// from-scratch Detect would recompute deterministically (the shifter set,
// the conflict graph, identity keys, cluster partitions, edge index maps,
// the merged Detection) is rebuilt on restore from the same constructors the
// live engine uses, which keeps the snapshot small and — more importantly —
// turns restore into a self-check: a snapshot whose serialized cluster count
// or shard indices disagree with what the rebuild derives is rejected
// instead of silently deserialized into an inconsistent engine.

// PairRecState is the stable identity of one shifter-overlap constraint in
// wire form (see pairRec).
type PairRecState struct {
	UIDA, UIDB   int32
	SideA, SideB uint8
	Deficit      int64
	UID          int32
}

// ShardState is one conflict cluster's cached detection outcome in
// shard-local edge indices. Stage durations are intentionally not part of
// the state: a reused cluster's durations are never summed into a
// Detection's stats (only freshly solved clusters report time), so they are
// dead weight in a snapshot.
type ShardState struct {
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

	// Hierarchy sidecar of the working layout (all empty when flat). The
	// instance tags feed only the instance-aware fast path, never results.
	HierCells           []string
	HierPlacementCell   []int32
	HierFeatureInstance []int32

	FeatUID   []int32
	NextUID   int32
	NextOvUID int32

	Pairs []PairRecState

	DirtyUIDs   []int32
	DeletedUIDs []int32

	// Last committed detection, present when HasPrev.
	HasPrev    bool
	CrossPairs [][2]int32
	NShards    int
	Shards     []*ShardState // nil entries for edge-less clusters
	DetStats   Stats

	// Incremental DRC cache.
	DRCReady     bool
	DRCPairs     []uint64 // packed uid pairs, ascending
	DRCDirtyUIDs []int32
	DRCDelUIDs   []int32

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
// Detect runs in full. DRC caches have no such dependency — violating pairs
// are keyed by feature uids and re-validated against current geometry — so
// they survive export in either case.
func (inc *Incremental) ExportState() *IncrementalState {
	st := &IncrementalState{
		LayoutName: inc.lay.Name,
		Features:   append([]layout.Feature(nil), inc.lay.Features...),
		FeatUID:    append([]int32(nil), inc.featUID...),
		NextUID:    inc.nextUID,
		NextOvUID:  inc.nextOvUID,
		DRCReady:   inc.drcReady,
		Stats:      inc.stats,
	}
	if h := inc.lay.Hier; h != nil {
		st.HierCells = append([]string(nil), h.Cells...)
		st.HierPlacementCell = append([]int32(nil), h.PlacementCell...)
		st.HierFeatureInstance = append([]int32(nil), h.FeatureInstance...)
	}
	quiescent := len(inc.dirty) == 0 && len(inc.deleted) == 0
	if quiescent {
		st.Pairs = make([]PairRecState, len(inc.pairs))
		for i, rec := range inc.pairs {
			st.Pairs[i] = PairRecState{
				UIDA: rec.uidA, UIDB: rec.uidB,
				SideA: uint8(rec.sideA), SideB: uint8(rec.sideB),
				Deficit: rec.deficit, UID: rec.uid,
			}
		}
	}
	st.DRCDirtyUIDs = sortedUIDs(inc.drcDirty)
	st.DRCDelUIDs = sortedUIDs(inc.drcDel)
	st.DRCPairs = make([]uint64, 0, len(inc.drcPairs))
	for key := range inc.drcPairs {
		st.DRCPairs = append(st.DRCPairs, key)
	}
	sort.Slice(st.DRCPairs, func(i, j int) bool { return st.DRCPairs[i] < st.DRCPairs[j] })

	if snap := inc.prev; snap != nil && quiescent {
		st.HasPrev = true
		st.CrossPairs = make([][2]int32, len(snap.crossPairs))
		for i, p := range snap.crossPairs {
			st.CrossPairs[i] = [2]int32{int32(p[0]), int32(p[1])}
		}
		st.NShards = snap.nShards
		st.Shards = make([]*ShardState, len(snap.results))
		for c, r := range snap.results {
			if r == nil {
				continue
			}
			st.Shards[c] = &ShardState{
				Removed:   toInt32(r.removed),
				Bipart:    toInt32(r.bipart),
				Final:     toInt32(r.final),
				DualNodes: r.dualNodes, DualEdges: r.dualEdges, OddFaces: r.oddFaces,
				GadgetNodes: r.gadgetNodes, GadgetEdges: r.gadgetEdges,
			}
		}
		st.DetStats = snap.det.Stats
	}
	return st
}

// RestoreStats overwrites the engine's cumulative work counters. The restore
// flow re-runs previously memoized pipeline stages to rebuild their values,
// which bumps counters the original session already accounted for; callers
// erase that noise by restoring the serialized counters afterwards.
func (inc *Incremental) RestoreStats(s IncStats) { inc.stats = s }

// RestoreIncremental reconstructs an Incremental engine from its exported
// state under the given configuration. The secondary state — shifter set,
// conflict graph, identity keys, cluster partition, merged Detection — is
// rebuilt with the same constructors a live Detect uses, and every rebuilt
// quantity is cross-checked against the serialized state (cluster counts,
// index ranges, and finally the merged conflict set's bipartiteness
// self-check), so a corrupted or internally inconsistent snapshot fails
// loudly instead of restoring a wrong engine.
func RestoreIncremental(st *IncrementalState, r layout.Rules, kind GraphKind, opt Options) (*Incremental, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if len(st.FeatUID) != len(st.Features) {
		return nil, fmt.Errorf("core: restore: %d feature uids for %d features", len(st.FeatUID), len(st.Features))
	}
	if st.NextUID < 0 || st.NextOvUID < 0 {
		return nil, fmt.Errorf("core: restore: negative uid counter")
	}
	inc := &Incremental{
		rules: r,
		kind:  kind,
		opt:   opt,
		lay: &layout.Layout{
			Name:     st.LayoutName,
			Features: append([]layout.Feature(nil), st.Features...),
		},
		featUID:   append([]int32(nil), st.FeatUID...),
		nextUID:   st.NextUID,
		nextOvUID: st.NextOvUID,
		grid:      geom.NewGrid(featureGridCell(r)),
		drcPairs:  make(map[uint64]bool, len(st.DRCPairs)),
	}
	if len(st.HierCells) > 0 || len(st.HierPlacementCell) > 0 || len(st.HierFeatureInstance) > 0 {
		inc.lay.Hier = &layout.Hierarchy{
			Cells:           append([]string(nil), st.HierCells...),
			PlacementCell:   append([]int32(nil), st.HierPlacementCell...),
			FeatureInstance: append([]int32(nil), st.HierFeatureInstance...),
		}
		if err := inc.lay.Hier.Validate(len(inc.lay.Features)); err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
	}
	// Feature identity: uids must be unique and in range; featOf inverts the
	// mapping. The grid and the correction cut-span indexes are purely
	// geometric, so they are rebuilt from the current features.
	inc.featOf = make([]int32, st.NextUID)
	for i := range inc.featOf {
		inc.featOf[i] = -1
	}
	for i, uid := range inc.featUID {
		if uid < 0 || uid >= st.NextUID {
			return nil, fmt.Errorf("core: restore: feature uid %d out of range [0,%d)", uid, st.NextUID)
		}
		if inc.featOf[uid] >= 0 {
			return nil, fmt.Errorf("core: restore: duplicate feature uid %d", uid)
		}
		inc.featOf[uid] = int32(i)
		f := inc.lay.Features[i]
		inc.grid.Insert(uid, f.Rect)
		inc.cutSpanInsert(f)
	}

	// Overlap-pair records, in serialized slice order (the order is part of
	// the state: buildSet's sort is stable only across identical inputs).
	inc.pairs = make([]pairRec, len(st.Pairs))
	for i, p := range st.Pairs {
		if p.SideA > 1 || p.SideB > 1 {
			return nil, fmt.Errorf("core: restore: pair %d has invalid shifter side", i)
		}
		if p.UID < 0 || p.UID >= st.NextOvUID {
			return nil, fmt.Errorf("core: restore: pair uid %d out of range [0,%d)", p.UID, st.NextOvUID)
		}
		for _, uid := range [2]int32{p.UIDA, p.UIDB} {
			if uid < 0 || uid >= st.NextUID || inc.featOf[uid] < 0 {
				return nil, fmt.Errorf("core: restore: pair %d references dead feature uid %d", i, uid)
			}
			if !r.IsCritical(inc.lay.Features[inc.featOf[uid]]) {
				return nil, fmt.Errorf("core: restore: pair %d references non-critical feature uid %d", i, uid)
			}
		}
		inc.pairs[i] = pairRec{
			uidA: p.UIDA, uidB: p.UIDB,
			sideA: shifter.Side(p.SideA), sideB: shifter.Side(p.SideB),
			deficit: p.Deficit, uid: p.UID,
		}
	}

	var err error
	if inc.dirty, err = uidSet(st.DirtyUIDs, st.NextUID, inc.featOf, true); err != nil {
		return nil, fmt.Errorf("core: restore: dirty %w", err)
	}
	if inc.deleted, err = uidSet(st.DeletedUIDs, st.NextUID, inc.featOf, false); err != nil {
		return nil, fmt.Errorf("core: restore: deleted %w", err)
	}
	if inc.drcDirty, err = uidSet(st.DRCDirtyUIDs, st.NextUID, inc.featOf, true); err != nil {
		return nil, fmt.Errorf("core: restore: drc dirty %w", err)
	}
	if inc.drcDel, err = uidSet(st.DRCDelUIDs, st.NextUID, inc.featOf, false); err != nil {
		return nil, fmt.Errorf("core: restore: drc deleted %w", err)
	}

	inc.drcReady = st.DRCReady
	for _, key := range st.DRCPairs {
		for _, uid := range [2]int32{int32(key >> 32), int32(uint32(key))} {
			if uid < 0 || uid >= st.NextUID || inc.featOf[uid] < 0 {
				return nil, fmt.Errorf("core: restore: drc pair references dead feature uid %d", uid)
			}
		}
		inc.drcPairs[key] = true
	}

	if st.HasPrev {
		if err := inc.restoreSnapshot(st); err != nil {
			return nil, err
		}
	}
	inc.stats = st.Stats
	return inc, nil
}

// restoreSnapshot rebuilds the committed detection (incSnapshot) from the
// serialized primary state, mirroring Detect's commit path step by step.
func (inc *Incremental) restoreSnapshot(st *IncrementalState) error {
	set, ovRecs := inc.buildSet(inc.pairs)
	cg, err := BuildGraphFromSet(inc.lay, inc.rules, set, inc.kind)
	if err != nil {
		return fmt.Errorf("core: restore: rebuild graph: %w", err)
	}
	g := cg.Drawing.G
	m := g.M()
	nodeKeys, edgeKeys := inc.identityKeys(set, ovRecs)

	run := &clusterRun{crossPairs: make([][2]int, len(st.CrossPairs))}
	for i, p := range st.CrossPairs {
		if p[0] < 0 || int(p[0]) >= m || p[1] < 0 || int(p[1]) >= m {
			return fmt.Errorf("core: restore: crossing pair %d references edge outside [0,%d)", i, m)
		}
		run.crossPairs[i] = [2]int{int(p[0]), int(p[1])}
	}

	run.partition(g)
	nShards := run.nShards
	if nShards != st.NShards {
		return fmt.Errorf("core: restore: rebuilt %d conflict clusters, snapshot has %d", nShards, st.NShards)
	}
	if len(st.Shards) != nShards {
		return fmt.Errorf("core: restore: shard state sized for %d clusters, want %d", len(st.Shards), nShards)
	}

	// Only the edge index maps are needed to re-merge cached results; no
	// cluster is re-materialized as a standalone drawing.
	none := make([]bool, nShards)
	shards := cg.Drawing.InducedComponentsSubset(run.labels, nShards, none)
	edgeOf := make([][]int, nShards)
	run.results = make([]*shardResult, nShards)
	det := &Detection{Graph: cg}
	for c := range shards {
		edgeOf[c] = shards[c].EdgeOf
		sh := st.Shards[c]
		if sh == nil {
			continue
		}
		r := &shardResult{
			dualNodes: sh.DualNodes, dualEdges: sh.DualEdges, oddFaces: sh.OddFaces,
			gadgetNodes: sh.GadgetNodes, gadgetEdges: sh.GadgetEdges,
		}
		for _, field := range [3]struct {
			src []int32
			dst *[]int
		}{{sh.Removed, &r.removed}, {sh.Bipart, &r.bipart}, {sh.Final, &r.final}} {
			out := make([]int, len(field.src))
			for i, le := range field.src {
				if le < 0 || int(le) >= len(edgeOf[c]) {
					return fmt.Errorf("core: restore: cluster %d local edge %d outside [0,%d)", c, le, len(edgeOf[c]))
				}
				out[i] = int(le)
			}
			*field.dst = out
		}
		run.results[c] = r
	}
	// mergeShards re-derives the global conflict sets through the rebuilt
	// index maps and ends with the bipartiteness self-check — the snapshot's
	// integrity gate. fresh=none keeps the (absent) shard durations out.
	if err := mergeShards(det, cg, edgeOf, run.results, none); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	// The rebuilt counters must be the serialized ones; durations cannot be
	// recomputed, so the whole Stats block is taken from the snapshot.
	det.Stats = st.DetStats

	inc.prev = &incSnapshot{clusterRun: *run, det: det, nodeKeys: nodeKeys, edgeKeys: edgeKeys}
	return nil
}

func sortedUIDs(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for uid := range m {
		out = append(out, uid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// uidSet validates a uid list against the feature table and materializes it
// as a set: live uids must still map to a feature, deleted ones must not.
func uidSet(uids []int32, nextUID int32, featOf []int32, live bool) (map[int32]bool, error) {
	m := make(map[int32]bool, len(uids))
	for _, uid := range uids {
		if uid < 0 || uid >= nextUID {
			return nil, fmt.Errorf("uid %d out of range [0,%d)", uid, nextUID)
		}
		if live && featOf[uid] < 0 {
			return nil, fmt.Errorf("uid %d names a deleted feature", uid)
		}
		if !live && featOf[uid] >= 0 {
			return nil, fmt.Errorf("uid %d names a live feature", uid)
		}
		m[uid] = true
	}
	return m, nil
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}
