package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/shifter"
)

// Incremental is a stateful edit-and-re-detect engine: it owns a working
// copy of a layout, accepts feature mutations (add / move / delete), and
// re-runs the detection flow after each batch of edits, taking every
// cluster's result from the previous generation's store when that store
// holds the cluster's content.
//
// Exactness is the design invariant: an Incremental Detect returns a
// Detection bit-identical to BuildGraph + DetectContext on the current
// layout. A cluster's result depends only on the cluster's content, so
// results are reused by content alone: every Detect signs each cluster
// (clusterSignature) and looks the signature bytes up in the store the
// previous Detect left, which maps every signature of that run to its
// result. Only clusters whose content the previous generation never saw are
// solved.
//
// The engine patches what feeds the clusters instead of rebuilding it from
// scratch where it can. Every feature has a stable uid, and every
// conflict-graph edge is named by the features it constrains (edgeKey), so
// an edge survives an edit exactly when none of its features was edited. The
// overlap set is patched from the geometric neighborhood of each edit (a
// persistent geom.Grid over feature rectangles prunes the candidates), and
// the crossing-pair set around the edges that are new or moved.
//
// There is one detection routine: DetectContext, an engine's first Detect,
// every re-detect and a restore all run the same cluster partition, decide
// rule, solve and merge. A first Detect has no store to read; a re-detect
// reads the previous generation's; a restore reads a snapshot's store with
// its crossing pairs, and fails unless the store holds exactly the rebuilt
// partition's signatures, so it solves nothing.
//
// An Incremental is not safe for concurrent use; the Session layer
// serializes access.
type Incremental struct {
	rules layout.Rules
	kind  GraphKind
	opt   Options

	lay *layout.Layout // owned working copy, mutated in place

	featUID []int32 // stable uid per feature slot, parallel to lay.Features
	featOf  []int32 // uid -> current feature index, -1 once deleted
	nextUID int32

	grid *geom.Grid // live feature rectangles, keyed by feature uid

	pairs []pairRec // live overlap-pair records, unordered

	// Pending edit effects since the last successful Detect.
	dirty   map[int32]bool // uids of features whose constraints must be recomputed
	deleted map[int32]bool // uids of features removed since the last Detect

	prev *incSnapshot // last successful detection state; nil before the first

	// Downstream-stage state: DRC keeps the violating feature pairs keyed by
	// stable uids. It is the only stage after detection with reuse state.
	drcReady bool            // drcPairs reflects the layout as of the last DRC
	drcPairs map[uint64]bool // packed uid pairs with a live spacing violation
	drcDirty map[int32]bool  // uids edited since the last DRC
	drcDel   map[int32]bool  // uids deleted since the last DRC

	stats IncStats
}

// pairRec is one shifter-overlap constraint: the two flanking shifters are
// named by (feature uid, side), so the record survives any renumbering of
// untouched features.
type pairRec struct {
	uidA, uidB   int32
	sideA, sideB shifter.Side
	deficit      int64
}

// edgeKey names a conflict-graph edge by the features it constrains. An
// overlap edge carries its two shifters' (feature uid, side), lower uid
// first, and its half (0 or 1); a feature edge carries its feature uid in
// uidA and -1 in uidB.
type edgeKey struct {
	uidA, uidB   int32
	sideA, sideB shifter.Side
	half         int8
}

// incSnapshot captures everything a later Detect reads of this one: the
// crossing pairs and result store, the Detection, and the edge identities
// that survivor matching aligns.
type incSnapshot struct {
	clusterRun
	det      *Detection
	edgeKeys []edgeKey // identity per graph edge
}

// IncStats reports the cumulative work profile of an Incremental engine.
// The JSON tags are the wire form served by aapsmd's session-info endpoint.
type IncStats struct {
	// Edits counts accepted mutations (add/move/delete).
	Edits int `json:"edits"`
	// Detects counts successful Detect calls, FullDetects those with no
	// previous generation to read (the first run, or a run after state
	// loss).
	Detects     int `json:"detects"`
	FullDetects int `json:"full_detects"`
	// ShardsReused counts conflict clusters that took the result the
	// previous generation stored under their signature (Stats.ReusedShards
	// summed), ShardsSolved the clusters solved, across all Detects.
	ShardsReused int `json:"shards_reused"`
	ShardsSolved int `json:"shards_solved"`
	// FallbackDirty counts broken reuse invariants: re-detects whose
	// survivor matching failed and so swept every crossing, and incremental
	// DRC runs whose cached pair no longer violated and so checked in full.
	// Results stay exact either way; it should stay 0.
	FallbackDirty int `json:"fallback_dirty"`

	// Solve-sharing tallies, cumulative over Detects: HierClustersReused
	// counts clusters that took the result of an identical cluster solved
	// in the same Detect, HierClustersSolved the representatives whose
	// result at least one such cluster took (Stats.HierReusedShards and
	// HierSolvedShards summed). ShardsSolved excludes the takers.
	HierClustersReused int `json:"hier_clusters_reused"`
	HierClustersSolved int `json:"hier_clusters_solved"`

	// DRCPairs count spacing-pair evaluations of the incremental DRC
	// (reused = cached violating pairs carried over a re-check), cumulative
	// like the shard tallies.
	DRCPairsReused int `json:"drc_pairs_reused"`
	DRCPairsSolved int `json:"drc_pairs_solved"`
}

// NewIncremental starts an edit session on a deep copy of l (the caller's
// layout is never touched). The options configure every subsequent Detect.
func NewIncremental(l *layout.Layout, r layout.Rules, kind GraphKind, opt Options) (*Incremental, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	inc := &Incremental{
		rules:    r,
		kind:     kind,
		opt:      opt,
		lay:      l.Clone(),
		dirty:    make(map[int32]bool),
		deleted:  make(map[int32]bool),
		grid:     geom.NewGrid(featureGridCell(r)),
		drcPairs: make(map[uint64]bool),
		drcDirty: make(map[int32]bool),
		drcDel:   make(map[int32]bool),
	}
	inc.featUID = make([]int32, len(inc.lay.Features))
	inc.featOf = make([]int32, 0, len(inc.lay.Features))
	for i, f := range inc.lay.Features {
		uid := inc.nextUID
		inc.nextUID++
		inc.featUID[i] = uid
		inc.featOf = append(inc.featOf, int32(i))
		inc.grid.Insert(uid, f.Rect)
	}
	return inc, nil
}

// featureGridCell sizes the persistent feature grid near the interaction
// reach so neighborhood queries touch few cells.
func featureGridCell(r layout.Rules) int64 {
	c := 2 * (2*(r.ShifterGap+r.ShifterWidth) + r.MinShifterSpacing)
	if c < 16 {
		c = 16
	}
	return c
}

// reach is the interaction radius of an edit: a feature farther than this
// from a rectangle cannot share an overlap constraint with a feature inside
// it (shifters extend ShifterGap+ShifterWidth beyond each feature and couple
// below MinShifterSpacing).
func (inc *Incremental) reach() int64 {
	return 2*(inc.rules.ShifterGap+inc.rules.ShifterWidth) + inc.rules.MinShifterSpacing + 1
}

// Layout returns the engine's working copy. Callers must treat it as
// read-only and mutate only through the edit methods.
func (inc *Incremental) Layout() *layout.Layout { return inc.lay }

// Stats returns the cumulative work counters. A nil engine has done no work
// and reports zero counters.
func (inc *Incremental) Stats() IncStats {
	if inc == nil {
		return IncStats{}
	}
	return inc.stats
}

// SetWorkers bounds the worker pool used to re-solve dirty clusters.
func (inc *Incremental) SetWorkers(n int) { inc.opt.Workers = n }

// AddFeature appends a feature and returns its index.
func (inc *Incremental) AddFeature(r geom.Rect, layer int) int {
	fi := len(inc.lay.Features)
	inc.lay.Features = append(inc.lay.Features, layout.Feature{Rect: r, Layer: layer})
	if h := inc.lay.Hier; h != nil {
		h.FeatureInstance = append(h.FeatureInstance, -1)
	}
	uid := inc.nextUID
	inc.nextUID++
	inc.featUID = append(inc.featUID, uid)
	inc.featOf = append(inc.featOf, int32(fi))
	inc.grid.Insert(uid, r)
	inc.dirty[uid] = true
	inc.drcDirty[uid] = true
	inc.stats.Edits++
	return fi
}

// MoveFeature moves (or resizes) feature i to rectangle r.
func (inc *Incremental) MoveFeature(i int, r geom.Rect) error {
	if i < 0 || i >= len(inc.lay.Features) {
		return fmt.Errorf("core: move: feature index %d out of range [0,%d)", i, len(inc.lay.Features))
	}
	f := &inc.lay.Features[i]
	uid := inc.featUID[i]
	inc.grid.Remove(uid, f.Rect)
	f.Rect = r
	inc.grid.Insert(uid, r)
	if h := inc.lay.Hier; h != nil {
		// Provenance is lost once a placed feature moves: the cluster it
		// lands in no longer matches its cell's canonical shape.
		h.FeatureInstance[i] = -1
	}
	inc.dirty[uid] = true
	inc.drcDirty[uid] = true
	inc.stats.Edits++
	return nil
}

// DeleteFeature removes feature i; later features shift down one index, as
// with a slice deletion.
func (inc *Incremental) DeleteFeature(i int) error {
	if i < 0 || i >= len(inc.lay.Features) {
		return fmt.Errorf("core: delete: feature index %d out of range [0,%d)", i, len(inc.lay.Features))
	}
	uid := inc.featUID[i]
	inc.grid.Remove(uid, inc.lay.Features[i].Rect)
	inc.lay.Features = append(inc.lay.Features[:i], inc.lay.Features[i+1:]...)
	if h := inc.lay.Hier; h != nil {
		h.FeatureInstance = append(h.FeatureInstance[:i], h.FeatureInstance[i+1:]...)
	}
	inc.featUID = append(inc.featUID[:i], inc.featUID[i+1:]...)
	for j := i; j < len(inc.featUID); j++ {
		inc.featOf[inc.featUID[j]] = int32(j)
	}
	inc.featOf[uid] = -1
	delete(inc.dirty, uid)
	inc.deleted[uid] = true
	delete(inc.drcDirty, uid)
	inc.drcDel[uid] = true
	inc.stats.Edits++
	return nil
}

// Detect re-runs the detection flow on the current layout, reusing every
// cluster result the previous generation stored under the same content. It
// patches the overlap pairs, rebuilds the shifter set and the conflict graph,
// matches surviving edges against the previous generation to patch the
// crossing pairs, and hands the cluster solve and merge to the routine
// behind DetectContext, so the returned Detection is bit-identical to a
// from-scratch BuildGraph + DetectContext on the same layout. With no
// pending edits the previous Detection is returned unchanged.
func (inc *Incremental) Detect(ctx context.Context) (*Detection, error) {
	if inc.prev != nil && len(inc.dirty) == 0 && len(inc.deleted) == 0 {
		return inc.prev.det, nil
	}
	return inc.runDetect(ctx, nil)
}

// runDetect is the body of Detect. A non-nil seed is the state a fresh
// engine is restored from: its crossing pairs stand in for the sweep, and its
// store for the previous generation's, which must then hold every cluster's
// result and nothing else.
func (inc *Incremental) runDetect(ctx context.Context, seed *clusterRun) (*Detection, error) {
	start := time.Now() //aapsmvet:allow determinism stage-timing telemetry only; durations land in Stats, never in results
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// --- 1. Patch the overlap-pair records from the edit neighborhood. ---
	records, set, err := inc.patchPairs()
	if err != nil {
		return nil, err
	}

	// --- 2. Rebuild the shifter set in from-scratch order (the first run
	// already holds shifter.Generate's own set). ---
	if set == nil {
		set = inc.buildSet(records)
	}

	// --- 3. Rebuild the conflict graph (same constructor as from-scratch,
	// so drawing, positions and index spaces match exactly). ---
	cg, err := BuildGraphFromSet(inc.lay, inc.rules, set, inc.kind)
	if err != nil {
		return nil, err
	}
	g := cg.Drawing.G

	// --- 4. The crossing pairs: a seed's, or patched from the previous
	// generation's around the dirty edges, or a full sweep. Survivor
	// matching names the dirty edges: an edge named by its features dies
	// when one of them was edited or deleted and is new when one was
	// edited, and a surviving edge is dirty when its endpoints moved. ---
	keys := inc.edgeKeys(set)
	var cross func() [][2]int
	var prevStore map[string]*shardResult
	switch {
	case seed != nil:
		for i, p := range seed.crossPairs {
			if p[0] < 0 || p[0] >= g.M() || p[1] < 0 || p[1] >= g.M() {
				return nil, fmt.Errorf("crossing pair %d references edge outside [0,%d)", i, g.M())
			}
		}
		cross, prevStore = func() [][2]int { return seed.crossPairs }, seed.store
	case inc.prev != nil:
		prevStore = inc.prev.store
		isDead := func(k edgeKey) bool { return inc.touched(k.uidA) || inc.touched(k.uidB) }
		isNew := func(k edgeKey) bool { return inc.dirty[k.uidA] || inc.dirty[k.uidB] }
		oldToNewEdge, newToOldEdge, err := matchSurvivors(inc.prev.edgeKeys, keys, isDead, isNew)
		if err != nil {
			// A broken survivor invariant costs a full crossing sweep; the
			// store still applies. The differential suites treat this as a
			// bug signal via FallbackDirty.
			inc.stats.FallbackDirty++
			break
		}
		oldD := inc.prev.det.Graph.Drawing
		dirtyEdge := make([]bool, g.M())
		for e, oe := range newToOldEdge {
			if oe < 0 {
				dirtyEdge[e] = true
				continue
			}
			ed, od := g.Edge(e), oldD.G.Edge(oe)
			dirtyEdge[e] = oldD.Pos[od.U] != cg.Drawing.Pos[ed.U] || oldD.Pos[od.V] != cg.Drawing.Pos[ed.V]
		}
		cross = func() [][2]int { return inc.patchCrossings(cg, dirtyEdge, oldToNewEdge) }
	}

	// --- 5. Detect: every cluster takes its stored result, or an identical
	// cluster's, or is solved. ---
	det, run, err := detect(ctx, cg, cross, prevStore, seed != nil, inc.opt)
	if err != nil {
		return nil, err
	}
	det.Stats.TotalTime = time.Since(start)
	// ShardsSolved counts the solves this run performed; a cluster that took
	// an identical cluster's result is tallied in HierClustersReused.
	inc.stats.ShardsSolved += det.Stats.Shards - det.Stats.ReusedShards - det.Stats.HierReusedShards
	inc.stats.ShardsReused += det.Stats.ReusedShards
	inc.stats.HierClustersReused += det.Stats.HierReusedShards
	inc.stats.HierClustersSolved += det.Stats.HierSolvedShards

	// --- 6. Commit the new state. ---
	if inc.prev == nil {
		inc.stats.FullDetects++
	}
	inc.pairs = records
	inc.prev = &incSnapshot{clusterRun: *run, det: det, edgeKeys: keys}
	inc.dirty = make(map[int32]bool)
	inc.deleted = make(map[int32]bool)
	inc.stats.Detects++
	return det, nil
}

// touched reports whether feature uid was edited or deleted since the last
// Detect.
func (inc *Incremental) touched(uid int32) bool { return inc.dirty[uid] || inc.deleted[uid] }

// patchPairs drops every overlap-pair record touching an edited or deleted
// feature and re-enumerates the pairs of each edited feature against its
// geometric neighborhood. On the first run it enumerates everything via the
// same generator the from-scratch flow uses and also returns that generator's
// set, whose overlaps the records parallel; otherwise set is nil.
func (inc *Incremental) patchPairs() (records []pairRec, set *shifter.Set, err error) {
	if inc.prev == nil && len(inc.pairs) == 0 {
		set, err := shifter.Generate(inc.lay, inc.rules)
		if err != nil {
			return nil, nil, err
		}
		records = make([]pairRec, 0, len(set.Overlaps))
		for _, ov := range set.Overlaps {
			a, b := set.Shifters[ov.A], set.Shifters[ov.B]
			records = append(records, pairRec{
				uidA: inc.featUID[a.Feature], sideA: a.Side,
				uidB: inc.featUID[b.Feature], sideB: b.Side,
				deficit: ov.Deficit,
			})
		}
		return records, set, nil
	}

	records = make([]pairRec, 0, len(inc.pairs)+8)
	for _, rec := range inc.pairs {
		if !inc.touched(rec.uidA) && !inc.touched(rec.uidB) {
			records = append(records, rec)
		}
	}

	// Deterministic processing order: dirty features by current index.
	dirtyIdx := make([]int, 0, len(inc.dirty))
	for uid := range inc.dirty {
		if fi := inc.featOf[uid]; fi >= 0 {
			dirtyIdx = append(dirtyIdx, int(fi))
		}
	}
	sort.Ints(dirtyIdx)
	for _, fi := range dirtyIdx {
		f := inc.lay.Features[fi]
		if !inc.rules.IsCritical(f) {
			continue
		}
		fUID := inc.featUID[fi]
		loF, hiF := shifter.Flanks(f, inc.rules)
		fShifters := [2]geom.Rect{loF, hiF}
		inc.grid.Query(f.Rect.Expand(inc.reach()), nil, func(gUID int32) {
			gi := inc.featOf[gUID]
			if gi < 0 || int(gi) == fi {
				return
			}
			if inc.dirty[gUID] && int(gi) < fi {
				return // the pair was handled from the other side
			}
			gf := inc.lay.Features[gi]
			if !inc.rules.IsCritical(gf) {
				return
			}
			loG, hiG := shifter.Flanks(gf, inc.rules)
			gShifters := [2]geom.Rect{loG, hiG}
			for sa := 0; sa < 2; sa++ {
				for sb := 0; sb < 2; sb++ {
					deficit, ok := shifter.OverlapDeficit(fShifters[sa], gShifters[sb], inc.rules)
					if !ok {
						continue
					}
					records = append(records, pairRec{
						uidA: fUID, sideA: shifter.Side(sa),
						uidB: gUID, sideB: shifter.Side(sb),
						deficit: deficit,
					})
				}
			}
		})
	}
	return records, nil, nil
}

// buildSet materializes the shifter set of the current layout from the pair
// records, in exactly the order shifter.Generate produces: shifters by
// (feature, side), overlaps sorted by (A, B).
func (inc *Incremental) buildSet(records []pairRec) *shifter.Set {
	set, base := shifter.Synthesize(inc.lay, inc.rules)
	set.Overlaps = make([]shifter.Overlap, len(records))
	for i, rec := range records {
		a := int(base[inc.featOf[rec.uidA]]) + int(rec.sideA)
		b := int(base[inc.featOf[rec.uidB]]) + int(rec.sideB)
		set.Overlaps[i] = shifter.Overlap{A: min(a, b), B: max(a, b), Deficit: rec.deficit}
	}
	slices.SortFunc(set.Overlaps, func(p, q shifter.Overlap) int {
		return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B))
	})
	return set
}

// edgeKeys names the edges of the graph BuildGraphFromSet constructs from
// this set, in edge order: two per overlap, in overlap order, then one
// feature edge per flanked feature, in feature order. Slots, and so uids,
// ascend with feature index, so an overlap's A shifter has the lower uid.
func (inc *Incremental) edgeKeys(set *shifter.Set) []edgeKey {
	keys := make([]edgeKey, 0, 2*len(set.Overlaps)+len(set.Shifters)/2)
	for _, ov := range set.Overlaps {
		a, b := set.Shifters[ov.A], set.Shifters[ov.B]
		k := edgeKey{uidA: inc.featUID[a.Feature], sideA: a.Side, uidB: inc.featUID[b.Feature], sideB: b.Side}
		keys = append(keys, k)
		k.half = 1
		keys = append(keys, k)
	}
	for k := 0; k < len(set.Shifters); k += 2 {
		keys = append(keys, edgeKey{uidA: inc.featUID[set.Shifters[k].Feature], uidB: -1})
	}
	return keys
}

// matchSurvivors aligns two identity-key sequences whose surviving elements
// keep their relative order: old elements for which isDead holds and new
// elements for which isNew holds are unmatched; the remainders must zip
// one-to-one with equal keys. It returns oldToNew and newToOld index maps
// (-1 where unmatched) or an error when the zip invariant fails.
func matchSurvivors(oldKeys, newKeys []edgeKey, isDead, isNew func(edgeKey) bool) (oldToNew, newToOld []int, err error) {
	oldToNew = make([]int, len(oldKeys))
	newToOld = make([]int, len(newKeys))
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for i := range newToOld {
		newToOld[i] = -1
	}
	oi := 0
	advance := func() {
		for oi < len(oldKeys) && isDead(oldKeys[oi]) {
			oi++
		}
	}
	advance()
	for ni, key := range newKeys {
		if isNew(key) {
			continue
		}
		if oi >= len(oldKeys) || oldKeys[oi] != key {
			return nil, nil, fmt.Errorf("core: incremental survivor mismatch at new index %d", ni)
		}
		oldToNew[oi] = ni
		newToOld[ni] = oi
		oi++
		advance()
	}
	if oi != len(oldKeys) {
		return nil, nil, fmt.Errorf("core: incremental survivor mismatch: %d old elements unconsumed", len(oldKeys)-oi)
	}
	return oldToNew, newToOld, nil
}

// patchCrossings assembles the current crossing-pair set from the previous
// one: pairs between two clean surviving edges carry over through the index
// maps; every pair involving a dirty edge is recomputed exactly on the
// geometric neighborhood of the dirty edges.
func (inc *Incremental) patchCrossings(cg *ConflictGraph, dirtyEdge []bool, oldToNewEdge []int) [][2]int {
	d := cg.Drawing
	m := d.G.M()
	out := make([][2]int, 0, len(inc.prev.crossPairs)+8)
	for _, p := range inc.prev.crossPairs {
		na, nb := oldToNewEdge[p[0]], oldToNewEdge[p[1]]
		if na >= 0 && nb >= 0 && !dirtyEdge[na] && !dirtyEdge[nb] {
			out = append(out, [2]int{na, nb})
		}
	}
	var region geom.Rect
	bounds := make([]geom.Rect, m)
	var dirtyExtent int64
	nDirty := 0
	for e := 0; e < m; e++ {
		bounds[e] = d.EdgeBounds(e)
		if dirtyEdge[e] {
			region = region.Union(bounds[e])
			dirtyExtent += bounds[e].Width() + bounds[e].Height()
			nDirty++
		}
	}
	if nDirty > 0 {
		// Candidate edges are those whose bounds meet some dirty edge's
		// bounds. A grid over just the dirty bounds keeps the candidate set
		// proportional to the true neighborhoods even when a batch edits
		// far-apart corners of the layout (the union box alone would admit
		// everything in between); the union box remains as a cheap
		// pre-filter before the per-edge grid query.
		cell := dirtyExtent/int64(2*nDirty) + 1
		if cell < 16 {
			cell = 16
		}
		dg := geom.NewGrid(cell)
		for e := 0; e < m; e++ {
			if dirtyEdge[e] {
				dg.Insert(int32(e), bounds[e])
			}
		}
		seen := make([]bool, m)
		local := make([]int, 0, 64)
		for e := 0; e < m; e++ {
			if !bounds[e].Intersects(region) {
				continue
			}
			hit := dirtyEdge[e]
			if !hit {
				eb := bounds[e]
				dg.Query(eb, seen, func(de int32) {
					if bounds[de].Intersects(eb) {
						hit = true
					}
				})
			}
			if hit {
				local = append(local, e)
			}
		}
		out = append(out, d.CrossingsAmong(local, dirtyEdge)...)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}
