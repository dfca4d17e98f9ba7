package aapsm

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
)

// The snapshot differential property: encode → decode → re-pipeline must be
// bit-identical to the live session — for every pipeline stage, for the
// session counters and reuse stats, and for all FUTURE edits (the restored
// incremental caches must behave exactly like the originals, not just hold
// the same final values). Scripts are sampled from the same seeded family as
// TestIncrementalDifferential.

// zeroDurations strips the wall-clock fields from detection stats so
// comparisons cover only the deterministic counters.
func zeroDurations(st core.Stats) core.Stats {
	st.CrossTime, st.PlanarTime, st.EmbedTime = 0, 0, 0
	st.MatchTime, st.RecheckTime, st.TotalTime = 0, 0, 0
	return st
}

// assertSessionsIdentical requires live and restored sessions to be
// indistinguishable: same layout bytes, same stage results (or errors), same
// SVG, same work counters and incremental reuse stats.
func assertSessionsIdentical(t *testing.T, ctx context.Context, step string, live, restored *Session) {
	t.Helper()
	if lt, rt := layoutText(t, live.SnapshotLayout()), layoutText(t, restored.SnapshotLayout()); lt != rt {
		t.Fatalf("%s: layouts diverged", step)
	}

	ld, lerr := live.Detect(ctx)
	rd, rerr := restored.Detect(ctx)
	if (lerr == nil) != (rerr == nil) {
		t.Fatalf("%s: Detect errors diverged: %v vs %v", step, lerr, rerr)
	}
	if lerr == nil {
		assertSameDetection(t, step, rd, ld)
		// Durations are wall clock, not deterministic; the counters must
		// match exactly.
		if zeroDurations(ld.Detection.Stats) != zeroDurations(rd.Detection.Stats) {
			t.Fatalf("%s: detection stats diverged:\n live %+v\n rest %+v", step, ld.Detection.Stats, rd.Detection.Stats)
		}
	}

	la, lerr := live.Assignment(ctx)
	ra, rerr := restored.Assignment(ctx)
	if (lerr == nil) != (rerr == nil) {
		t.Fatalf("%s: Assignment errors diverged: %v vs %v", step, lerr, rerr)
	}
	if lerr == nil {
		if !slices.Equal(la.Phases, ra.Phases) {
			t.Fatalf("%s: phases diverged", step)
		}
		if !maps.Equal(la.Waived, ra.Waived) || !maps.Equal(la.WaivedFeatures, ra.WaivedFeatures) {
			t.Fatalf("%s: waived sets diverged", step)
		}
	}

	lc, lerr := live.Correction(ctx)
	rc, rerr := restored.Correction(ctx)
	if (lerr == nil) != (rerr == nil) {
		t.Fatalf("%s: Correction errors diverged: %v vs %v", step, lerr, rerr)
	}
	if lerr == nil {
		if !reflect.DeepEqual(lc.Plan.Cuts, rc.Plan.Cuts) || !slices.Equal(lc.Plan.Unfixable, rc.Plan.Unfixable) {
			t.Fatalf("%s: correction plans diverged", step)
		}
		if lc.Stats != rc.Stats {
			t.Fatalf("%s: correction stats diverged: %+v vs %+v", step, lc.Stats, rc.Stats)
		}
		if layoutText(t, lc.Layout) != layoutText(t, rc.Layout) {
			t.Fatalf("%s: corrected layouts diverged", step)
		}
	}

	lm, lerr := live.Mask(ctx)
	rm, rerr := restored.Mask(ctx)
	if (lerr == nil) != (rerr == nil) {
		t.Fatalf("%s: Mask errors diverged: %v vs %v", step, lerr, rerr)
	}
	if lerr != nil {
		if lerr.Error() != rerr.Error() {
			t.Fatalf("%s: mask errors diverged: %v vs %v", step, lerr, rerr)
		}
	} else if layoutText(t, lm) != layoutText(t, rm) {
		t.Fatalf("%s: mask views diverged", step)
	}

	if lv, rv := live.DRC(), restored.DRC(); !slices.Equal(lv, rv) {
		t.Fatalf("%s: DRC diverged:\n live %v\n rest %v", step, lv, rv)
	}
	if lj, rj := live.Junctions(), restored.Junctions(); !slices.Equal(lj, rj) {
		t.Fatalf("%s: junctions diverged", step)
	}

	var lsvg, rsvg bytes.Buffer
	lserr := live.RenderSVG(ctx, &lsvg)
	rserr := restored.RenderSVG(ctx, &rsvg)
	if (lserr == nil) != (rserr == nil) {
		t.Fatalf("%s: SVG errors diverged: %v vs %v", step, lserr, rserr)
	}
	if lserr == nil && !bytes.Equal(lsvg.Bytes(), rsvg.Bytes()) {
		t.Fatalf("%s: SVG bytes diverged", step)
	}

	if ls, rs := live.Stats(), restored.Stats(); ls != rs {
		t.Fatalf("%s: session stats diverged:\n live %+v\n rest %+v", step, ls, rs)
	}
}

// runSnapshotScript drives one seeded edit script, snapshots mid-script,
// restores on a second engine (the "restarted process"), and requires the
// restored session to be bit-identical — at restore time and across further
// identical edits on both sessions.
func runSnapshotScript(t *testing.T, seed int64, workers int) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	rows := 1 + rng.Intn(2)
	gates := 10 + rng.Intn(25)
	p := DefaultBenchmarkParams(seed, rows, gates)
	l := GenerateBenchmark(fmt.Sprintf("snap%d", seed), p)

	opts := []EngineOption{WithParallelism(workers)}
	if seed%4 == 0 {
		opts = append(opts, WithGraph(FG))
	}
	if seed%3 == 0 {
		opts = append(opts, WithImprovedRecheck(true))
	}
	eng := NewEngine(opts...)
	restartEng := NewEngine(opts...)

	s := eng.NewSession(l)
	if _, err := s.Detect(ctx); err != nil {
		t.Fatal(err)
	}
	steps := 3 + rng.Intn(3)
	for step := 0; step < steps; step++ {
		applyRandomEdit(t, rng, s)
		if _, err := s.Detect(ctx); err != nil {
			t.Fatalf("seed %d step %d: detect: %v", seed, step, err)
		}
	}
	// Warm every downstream stage so the snapshot carries all memo bits
	// (errors like ErrNotAssignable are valid memoized outcomes).
	s.Assignment(ctx)
	s.Correction(ctx)
	s.Mask(ctx)
	s.DRC()
	s.Junctions()

	data, err := s.Snapshot()
	if err != nil {
		t.Fatalf("seed %d: snapshot: %v", seed, err)
	}
	again, err := s.Snapshot()
	if err != nil {
		t.Fatalf("seed %d: re-snapshot: %v", seed, err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("seed %d: snapshot is not deterministic", seed)
	}

	r, err := restartEng.RestoreSessionWithParallelism(ctx, data, workers)
	if err != nil {
		t.Fatalf("seed %d: restore: %v", seed, err)
	}
	assertSessionsIdentical(t, ctx, fmt.Sprintf("seed %d restore", seed), s, r)

	// Continue both sessions with identical edit streams: the restored
	// incremental caches must reuse exactly like the originals, and both
	// must keep matching the from-scratch reference chain.
	contRng, contRng2 := rand.New(rand.NewSource(seed*31+7)), rand.New(rand.NewSource(seed*31+7))
	for step := 0; step < 3; step++ {
		applyRandomEdit(t, contRng, s)
		applyRandomEdit(t, contRng2, r)
		label := fmt.Sprintf("seed %d cont %d", seed, step)
		assertSamePipeline(t, label, ctx, r, referenceOf(ctx, r))
		assertSessionsIdentical(t, ctx, label, s, r)
	}

	// Second generation: the restored session's engine numbers its features
	// afresh, and a snapshot of it must restore just as faithfully.
	gen2, err := r.Snapshot()
	if err != nil {
		t.Fatalf("seed %d: second-generation snapshot: %v", seed, err)
	}
	r3, err := restartEng.RestoreSessionWithParallelism(ctx, gen2, workers)
	if err != nil {
		t.Fatalf("seed %d: second-generation restore: %v", seed, err)
	}
	assertSessionsIdentical(t, ctx, fmt.Sprintf("seed %d second generation", seed), s, r3)

	// Snapshot with uncommitted edits (the degraded path: the pre-edit
	// caches describe geometry that no longer exists, so the restored
	// session re-detects from scratch — but must land on identical results).
	applyRandomEdit(t, contRng, s)
	applyRandomEdit(t, contRng2, r)
	dirty, err := s.Snapshot()
	if err != nil {
		t.Fatalf("seed %d: dirty snapshot: %v", seed, err)
	}
	r2, err := restartEng.RestoreSessionWithParallelism(ctx, dirty, workers)
	if err != nil {
		t.Fatalf("seed %d: dirty restore: %v", seed, err)
	}
	// The DRC cache survives the degraded export: the restored session's
	// next DRC reuses and re-probes exactly the pairs the live one does.
	ls0, rs0 := s.Stats().Incremental, r2.Stats().Incremental
	if lv, rv := s.DRC(), r2.DRC(); !slices.Equal(lv, rv) {
		t.Fatalf("seed %d dirty: DRC diverged:\n live %v\n rest %v", seed, lv, rv)
	}
	ls1, rs1 := s.Stats().Incremental, r2.Stats().Incremental
	if ls1.DRCPairsReused-ls0.DRCPairsReused != rs1.DRCPairsReused-rs0.DRCPairsReused ||
		ls1.DRCPairsSolved-ls0.DRCPairsSolved != rs1.DRCPairsSolved-rs0.DRCPairsSolved {
		t.Fatalf("seed %d dirty: DRC reuse diverged: live %+v -> %+v, restored %+v -> %+v", seed, ls0, ls1, rs0, rs1)
	}
	assertSamePipeline(t, fmt.Sprintf("seed %d dirty", seed), ctx, r2, referenceOf(ctx, s))
}

// TestSnapshotDifferential samples the seeded script family and checks the
// full snapshot property under serial and parallel detection. Run under
// -race in CI.
func TestSnapshotDifferential(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 5
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				runSnapshotScript(t, int64(1000*workers+seed), workers)
			}
		})
	}
}

// TestSnapshotBeforeFirstEdit: a session that detected but was never edited
// snapshots its warm detection; the restored session serves identical
// results and counters, and its first edit re-detects incrementally.
func TestSnapshotBeforeFirstEdit(t *testing.T) {
	ctx := context.Background()
	l := GenerateBenchmark("unedited", DefaultBenchmarkParams(3, 1, 14))
	eng := NewEngine(WithParallelism(2))
	s := eng.NewSession(l)
	if _, err := s.Assignment(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.RestoreSession(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	assertSessionsIdentical(t, ctx, "restored", s, r)

	mid := r.NumFeatures() / 2
	if err := r.MoveFeature(mid, r.Layout().Features[mid].Rect.Translate(Point{X: 10})); err != nil {
		t.Fatal(err)
	}
	assertSamePipeline(t, "after move", ctx, r, referenceOf(ctx, r))
	if st := r.Stats().Incremental; st.FullDetects != 1 || st.ShardsReused == 0 {
		t.Fatalf("restored session re-solved from scratch after its first edit: %+v", st)
	}
}

// TestRestoreRejectsMismatchedEngine: a snapshot must not restore into an
// engine with different rules, graph kind or detection options.
func TestRestoreRejectsMismatchedEngine(t *testing.T) {
	ctx := context.Background()
	l := GenerateBenchmark("mismatch", DefaultBenchmarkParams(5, 1, 12))
	s := NewEngine().NewSession(l)
	if _, err := s.Detect(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rules := Default90nmRules()
	rules.MinFeatureSpacing++
	for name, eng := range map[string]*Engine{
		"rules":   NewEngine(WithRules(rules)),
		"graph":   NewEngine(WithGraph(FG)),
		"method":  NewEngine(WithTJoinMethod(LawlerReduction)),
		"recheck": NewEngine(WithImprovedRecheck(true)),
	} {
		if _, err := eng.RestoreSession(ctx, data); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: got %v, want ErrSnapshotMismatch", name, err)
		}
	}
	// The matching engine still restores.
	if _, err := NewEngine().RestoreSession(ctx, data); err != nil {
		t.Errorf("matching engine: %v", err)
	}
}

// TestRestoreRejectsCorruptSnapshot: decode-level integrity failures surface
// as persist.ErrCorrupt, never a panic or a half-restored session.
func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	ctx := context.Background()
	l := GenerateBenchmark("corrupt", DefaultBenchmarkParams(6, 1, 10))
	s := NewEngine().NewSession(l)
	if _, err := s.Detect(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	if _, err := eng.RestoreSession(ctx, data[:len(data)/2]); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("truncated: got %v, want ErrCorrupt", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := eng.RestoreSession(ctx, flipped); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("bit flip: got %v, want ErrCorrupt", err)
	}
}

// TestRestoreRejectsInconsistentSnapshot: a snapshot that passes its checksum
// but names a feature or edge its own layout does not have, an overlap pair
// its layout's shifters do not form, or a result store that disagrees with
// the clusters its layout forms, restores to a StagePersist
// *FlowError matching persist.ErrCorrupt — never a panic, a bare error or a
// half-restored session — and the rejection allocates no more than a few
// clean restores would.
func TestRestoreRejectsInconsistentSnapshot(t *testing.T) {
	ctx := context.Background()
	rules := Default90nmRules()
	d1 := BenchmarkSuite()[0]
	l := GenerateBenchmark(d1.Name, d1.Params)
	// A wide feature away from the cells: in the layout, flanked by no
	// shifter, so no overlap pair may name it.
	wide := l.Add(R(-20_000, -20_000, -20_000+4*rules.CriticalWidth, -18_000))
	if rules.IsCritical(l.Features[wide]) {
		t.Fatal("fixture feature is critical")
	}
	// A narrow feature away from the cells: flanked, but its shifters
	// overlap no other shifter.
	lone := l.Add(R(-20_000, 20_000, -20_000+rules.CriticalWidth/2, 22_000))
	if !rules.IsCritical(l.Features[lone]) {
		t.Fatal("fixture feature is not critical")
	}
	eng := NewEngine()
	s := eng.NewSession(l)
	if _, err := s.Detect(ctx); err != nil {
		t.Fatal(err)
	}
	s.DRC()
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restore := func(data []byte) (allocated uint64, err error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = eng.RestoreSession(ctx, data)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	clean, err := restore(data)
	if err != nil {
		t.Fatalf("clean restore: %v", err)
	}

	base, err := persist.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	nf := int32(len(base.Inc.Features))
	shard := slices.IndexFunc(base.Inc.Shards, func(sh core.ShardState) bool { return len(sh.Final) > 0 })
	if len(base.Inc.Pairs) == 0 || len(base.Inc.CrossPairs) == 0 || shard < 0 {
		t.Fatalf("fixture lacks pairs, crossings or conflicts: %d pairs, %d crossings, shard %d",
			len(base.Inc.Pairs), len(base.Inc.CrossPairs), shard)
	}
	for _, tc := range []struct {
		name   string
		mutate func(st *core.IncrementalState)
	}{
		{"pair feature past the end", func(st *core.IncrementalState) { st.Pairs[0].FeatB = nf }},
		{"pair feature negative", func(st *core.IncrementalState) { st.Pairs[0].FeatA = -1 }},
		{"pair non-critical feature", func(st *core.IncrementalState) { st.Pairs[0].FeatA = int32(wide) }},
		{"pair whose shifters do not overlap", func(st *core.IncrementalState) { st.Pairs[0].FeatB = int32(lone) }},
		{"pair joining one feature's flanks", func(st *core.IncrementalState) {
			st.Pairs[0].FeatB, st.Pairs[0].SideB = st.Pairs[0].FeatA, 1-st.Pairs[0].SideA
		}},
		{"pair deficit altered", func(st *core.IncrementalState) {
			for i := range st.Pairs {
				st.Pairs[i].Deficit *= 3
			}
		}},
		{"duplicate pair", func(st *core.IncrementalState) { st.Pairs = append(st.Pairs, st.Pairs[0]) }},
		{"duplicate pair reversed", func(st *core.IncrementalState) {
			p := st.Pairs[0]
			st.Pairs = append(st.Pairs, core.PairState{FeatA: p.FeatB, SideA: p.SideB, FeatB: p.FeatA, SideB: p.SideA, Deficit: p.Deficit})
		}},
		{"crossing pair outside the graph", func(st *core.IncrementalState) { st.CrossPairs[0][1] = 1 << 30 }},
		{"store entry dropped", func(st *core.IncrementalState) { st.Shards = slices.Delete(st.Shards, shard, shard+1) }},
		{"store entry no cluster takes", func(st *core.IncrementalState) {
			extra := st.Shards[shard]
			extra.Sig = append(slices.Clone(extra.Sig), 0)
			st.Shards = append(st.Shards, extra)
		}},
		{"store key byte flipped", func(st *core.IncrementalState) {
			sig := st.Shards[shard].Sig
			sig[len(sig)-1] ^= 0x10
		}},
		{"local edge at the key's edge count", func(st *core.IncrementalState) {
			// A signature opens with the cluster's node and edge counts.
			sig := st.Shards[shard].Sig
			_, k := binary.Varint(sig)
			edges, _ := binary.Varint(sig[k:])
			st.Shards[shard].Final[0] = int32(edges)
		}},
		{"drc pair out of range", func(st *core.IncrementalState) { st.DRCPairs = append(st.DRCPairs, [2]int32{0, nf}) }},
		{"drc dirty mark out of range", func(st *core.IncrementalState) { st.DRCDirty = append(st.DRCDirty, nf) }},
		{"hierarchy length mismatch", func(st *core.IncrementalState) { st.HierFeatureInstance = make([]int32, nf+1) }},
	} {
		st, err := persist.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(&st.Inc)
		allocated, err := restore(persist.Encode(st))
		var fe *FlowError
		if !errors.As(err, &fe) || fe.Stage != StagePersist || !errors.Is(err, persist.ErrCorrupt) {
			t.Errorf("%s: got %v, want a %s FlowError matching persist.ErrCorrupt", tc.name, err, StagePersist)
		}
		if allocated > 4*clean {
			t.Errorf("%s: rejection allocated %d bytes, clean restore %d", tc.name, allocated, clean)
		}
	}
}
