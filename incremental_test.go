package aapsm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The differential harness: after every step of a seeded random edit script,
// the incremental session must be bit-identical to the reference chain
// (reference_test.go) run from scratch on the edited layout — not just
// detection (same crossing removals, bipartization set, T-join weight and
// final conflicts) but every downstream stage: phase assignment, constraint
// verification, correction plan and corrected layout, mask view, DRC and the
// SVG render. Scripts mix adds (including exact-duplicate rectangles, which
// force the node-position collision nudging paths), moves (including no-op
// moves and resizes), deletes, and batched edits.

// applyRandomEdit performs one random mutation (or a small batch) on s.
func applyRandomEdit(t *testing.T, rng *rand.Rand, s *Session) {
	t.Helper()
	l := s.Layout()
	n := len(l.Features)
	bb := l.BBox()
	if bb.Empty() {
		bb = R(0, 0, 4000, 4000)
	}
	randRect := func() Rect {
		// Width mix: mostly critical (< 150), some non-critical.
		w := []int64{80, 100, 120, 140, 200, 400}[rng.Intn(6)]
		h := 300 + rng.Int63n(1200)
		if rng.Intn(4) == 0 {
			w, h = h, w
		}
		x := bb.X0 + rng.Int63n(bb.Width()+2001) - 1000
		y := bb.Y0 + rng.Int63n(bb.Height()+2001) - 1000
		return R(x, y, x+w, y+h)
	}
	op := rng.Intn(12)
	switch {
	case op < 3 || n == 0: // add
		r := randRect()
		if n > 0 && rng.Intn(4) == 0 {
			// Exact duplicate of an existing feature: coincident shifter
			// centers exercise the position-collision nudging.
			r = l.Features[rng.Intn(n)].Rect
		}
		if _, err := s.AddFeature(r); err != nil {
			t.Fatalf("add: %v", err)
		}
	case op < 8: // move
		i := rng.Intn(n)
		r := l.Features[i].Rect
		switch rng.Intn(5) {
		case 0: // no-op move
		case 1: // resize (may flip criticality or orientation)
			r = R(r.X0, r.Y0, r.X0+80+rng.Int63n(400), r.Y0+200+rng.Int63n(1400))
		default:
			r = r.Translate(Point{X: rng.Int63n(901) - 450, Y: rng.Int63n(901) - 450})
		}
		if err := s.MoveFeature(i, r); err != nil {
			t.Fatalf("move: %v", err)
		}
	case op < 10: // delete
		if err := s.DeleteFeature(rng.Intn(n)); err != nil {
			t.Fatalf("delete: %v", err)
		}
	default: // batched edit
		err := s.Edit(func(ed *LayoutEditor) {
			k := 2 + rng.Intn(2)
			for j := 0; j < k; j++ {
				cur := ed.NumFeatures()
				switch {
				case cur == 0 || rng.Intn(3) == 0:
					ed.Add(randRect())
				case rng.Intn(2) == 0:
					i := rng.Intn(cur)
					ed.Move(i, ed.Feature(i).Rect.Translate(Point{X: rng.Int63n(601) - 300, Y: rng.Int63n(601) - 300}))
				default:
					ed.Delete(rng.Intn(cur))
				}
			}
		})
		if err != nil {
			t.Fatalf("batch edit: %v", err)
		}
	}
}

// runEditScript drives one seeded script on a session of l and checks the
// differential property after every step. It returns how many mask errors
// the comparisons covered.
func runEditScript(t *testing.T, seed int64, rng *rand.Rand, l *Layout, opts ...EngineOption) (maskErrs int) {
	ctx := context.Background()
	s := NewEngine(opts...).NewSession(l)
	// Two in three scripts detect before their first edit; that detection
	// seeds the cluster cache the first edit then reuses.
	if rng.Intn(3) < 2 {
		if _, err := s.Detect(ctx); err != nil {
			t.Fatal(err)
		}
	}
	steps := 4 + rng.Intn(6)
	for step := 0; step < steps; step++ {
		applyRandomEdit(t, rng, s)
		label := fmt.Sprintf("seed %d step %d", seed, step)
		if assertSamePipeline(t, label, ctx, s, referenceOf(ctx, s)) {
			maskErrs++
		}
	}
	if fb := s.Stats().Incremental.FallbackDirty; fb != 0 {
		t.Errorf("seed %d: %d clusters hit the conservative fallback (reuse invariant broke)", seed, fb)
	}
	return maskErrs
}

// TestIncrementalDifferential runs 200+ seeded edit scripts (70 seeds ×
// workers 1/2/4) on generated benchmark layouts, plus 40 dark-field scripts
// grown from Figure 1, asserting incremental == from-scratch exactly at EVERY
// pipeline stage — detect, assign (+verification), correct, mask, DRC, SVG —
// after every script step. Run under -race in CI.
func TestIncrementalDifferential(t *testing.T) {
	seeds := 70
	if testing.Short() {
		seeds = 24
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for i := 0; i < seeds; i++ {
				seed := int64(1000*workers + i)
				rng := rand.New(rand.NewSource(seed))
				rows := 1 + rng.Intn(2)
				gates := 10 + rng.Intn(25)
				l := GenerateBenchmark(fmt.Sprintf("script%d", seed), DefaultBenchmarkParams(seed, rows, gates))
				// Vary the engine configuration across scripts: every fourth
				// script uses the FG baseline (bent drawings), every third
				// the parity recheck.
				opts := []EngineOption{WithParallelism(workers)}
				if seed%4 == 0 {
					opts = append(opts, WithGraph(FG))
				}
				if seed%3 == 0 {
					opts = append(opts, WithImprovedRecheck(true))
				}
				runEditScript(t, seed, rng, l, opts...)
			}
		})
	}
	// Dark-field apertures on Figure 1's dense wires leave the mask view
	// phase-inconsistent, so these scripts cover the mask-error comparison.
	t.Run("dark-90nm", func(t *testing.T) {
		maskErrs := 0
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			maskErrs += runEditScript(t, seed, rng, Figure1Layout(),
				WithProfile("dark-90nm"), WithParallelism(1+int(seed%4)))
		}
		if maskErrs == 0 {
			t.Fatal("no script reached a mask error")
		}
		t.Logf("%d mask-error comparisons", maskErrs)
	})
}

// TestIncrementalReusesShards: a single-feature move on a multi-cluster
// design must reuse almost every cached cluster result — including on a
// session that detected before its first edit, with nothing called to
// prepare it for edits.
func TestIncrementalReusesShards(t *testing.T) {
	ctx := context.Background()
	l := GenerateBenchmark("reuse", DefaultBenchmarkParams(7, 3, 80))
	s := NewEngine().NewSession(l)

	res, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	shards := res.Detection.Stats.Shards
	if shards < 10 {
		t.Fatalf("expected many conflict clusters, got %d", shards)
	}

	mid := len(s.Layout().Features) / 2
	r := s.Layout().Features[mid].Rect
	if err := s.MoveFeature(mid, r.Translate(Point{X: 15})); err != nil {
		t.Fatal(err)
	}
	res2, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	reused := res2.Detection.Stats.ReusedShards
	if reused < shards/2 {
		t.Fatalf("single move reused only %d of %d clusters", reused, res2.Detection.Stats.Shards)
	}
	st := s.Stats()
	if st.Incremental.FallbackDirty != 0 {
		t.Fatalf("fallback invariants fired: %+v", st.Incremental)
	}
	if st.Incremental.FullDetects != 1 || st.Incremental.ShardsReused == 0 {
		t.Fatalf("the post-edit detect re-solved from scratch: %+v", st.Incremental)
	}
	if st.DetectRuns != 2 {
		t.Fatalf("DetectRuns = %d, want 2", st.DetectRuns)
	}
}

// TestIncrementalReusesByContent: cluster results are reused by content, not
// by which features an edit touched. A batch that moves one feature away and
// back before the next Detect leaves a dirty feature but every cluster's
// content unchanged, so the re-detect solves nothing, takes every cluster
// from the store, and still matches the from-scratch reference chain.
func TestIncrementalReusesByContent(t *testing.T) {
	ctx := context.Background()
	l := GenerateBenchmark("roundtrip", DefaultBenchmarkParams(7, 2, 40))
	s := NewEngine(WithParallelism(2)).NewSession(l)
	if _, err := s.Detect(ctx); err != nil {
		t.Fatal(err)
	}
	mid := len(s.Layout().Features) / 2
	r := s.Layout().Features[mid].Rect
	err := s.Edit(func(ed *LayoutEditor) {
		ed.Move(mid, r.Translate(Point{X: 15}))
		ed.Move(mid, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Incremental
	assertSamePipeline(t, "moved and back", ctx, s, referenceOf(ctx, s))
	after := s.Stats().Incremental
	if solved := after.ShardsSolved - before.ShardsSolved; solved != 0 {
		t.Fatalf("a layout moved back solved %d clusters, want 0", solved)
	}
	res, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Detection.Stats; st.ReusedShards != st.Shards {
		t.Fatalf("%d of %d clusters reused from the store", st.ReusedShards, st.Shards)
	}
	if after.Detects != before.Detects+1 || after.FallbackDirty != 0 {
		t.Fatalf("want one re-detect and no fallback: %+v -> %+v", before, after)
	}
}

// TestEditInvalidatesStages: edits must drop every memoized stage — including
// memoized errors, so a conflicted layout can be repaired on the same
// session.
func TestEditInvalidatesStages(t *testing.T) {
	ctx := context.Background()
	s := NewEngine().NewSession(Figure1Layout())

	if err := s.RequireAssignable(ctx); !errors.Is(err, ErrNotAssignable) {
		t.Fatalf("figure 1 should not be assignable, got %v", err)
	}
	// Repair: push the middle wire far away, breaking the odd cycle.
	if err := s.MoveFeature(1, R(350, 5000, 450, 6000)); err != nil {
		t.Fatal(err)
	}
	if err := s.RequireAssignable(ctx); err != nil {
		t.Fatalf("after repair: %v", err)
	}
	if _, err := s.Mask(ctx); err != nil {
		t.Fatalf("mask after repair: %v", err)
	}
	if runs := s.Stats().DetectRuns; runs != 2 {
		t.Fatalf("DetectRuns = %d, want 2 (one per edit generation)", runs)
	}

	// The caller's layout must be untouched: the session edits a copy.
	orig := Figure1Layout()
	s2 := NewEngine().NewSession(orig)
	if _, err := s2.AddFeature(R(10000, 0, 10100, 1000)); err != nil {
		t.Fatal(err)
	}
	if len(orig.Features) != 3 {
		t.Fatalf("caller layout mutated: %d features", len(orig.Features))
	}
	if len(s2.Layout().Features) != 4 {
		t.Fatalf("session layout missing the added feature")
	}
}

// TestEditPanicInvalidates: a panicking Edit callback must still invalidate
// the memoized stages for the operations it already applied — a recovered
// caller must never see a pre-edit detection for the mutated layout.
func TestEditPanicInvalidates(t *testing.T) {
	ctx := context.Background()
	s := NewEngine().NewSession(Figure5Layout())
	res1, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected the callback panic to propagate")
			}
		}()
		_ = s.Edit(func(ed *LayoutEditor) {
			ed.Add(R(0, 50000, 100, 51000))
			panic("boom")
		})
	}()
	if len(s.Layout().Features) != 11 {
		t.Fatalf("applied op lost: %d features", len(s.Layout().Features))
	}
	res2, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2 == res1 {
		t.Fatal("stale pre-edit detection served after a panicking Edit")
	}
	if got, want := res2.Detection.Stats.GraphNodes, res1.Detection.Stats.GraphNodes+2; got != want {
		t.Fatalf("post-panic detection has %d nodes, want %d (two shifters of the added wire)", got, want)
	}
}

// TestRejectedEditKeepsMemo: an Edit whose first operation is out of range
// applies nothing, so the generation and the memoized detection survive it.
func TestRejectedEditKeepsMemo(t *testing.T) {
	ctx := context.Background()
	s := NewEngine().NewSession(Figure5Layout())
	res1, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	err = s.Edit(func(ed *LayoutEditor) {
		ed.Move(1000, R(0, 0, 10, 10))
	})
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != StageEdit {
		t.Fatalf("Edit: err = %v, want *FlowError at StageEdit", err)
	}
	if got := s.Generation(); got != gen {
		t.Fatalf("generation %d -> %d after an edit that applied nothing", gen, got)
	}
	res2, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res1 {
		t.Fatal("an edit that applied nothing discarded the memoized detection")
	}
	if n := s.Stats().DetectRuns; n != 1 {
		t.Fatalf("detect runs = %d, want 1", n)
	}
}

// TestEditErrors: out-of-range indices surface as *FlowError at StageEdit,
// and a failing batch stops at the first bad operation.
func TestEditErrors(t *testing.T) {
	s := NewEngine().NewSession(Figure5Layout())
	err := s.MoveFeature(99, R(0, 0, 10, 10))
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != StageEdit {
		t.Fatalf("MoveFeature(99): err = %v, want *FlowError at StageEdit", err)
	}
	if err := s.DeleteFeature(-1); !errors.As(err, &fe) || fe.Stage != StageEdit {
		t.Fatalf("DeleteFeature(-1): err = %v, want *FlowError at StageEdit", err)
	}
	before := len(s.Layout().Features)
	err = s.Edit(func(ed *LayoutEditor) {
		ed.Add(R(0, 20000, 100, 21000)) // applies
		ed.Delete(1000)                 // fails
		ed.Add(R(0, 30000, 100, 31000)) // skipped
		if ed.Err() == nil {
			t.Error("editor error not recorded")
		}
	})
	if !errors.As(err, &fe) || fe.Stage != StageEdit {
		t.Fatalf("batch: err = %v, want *FlowError at StageEdit", err)
	}
	if got := len(s.Layout().Features); got != before+1 {
		t.Fatalf("batch applied %d features, want %d (ops before the failure stay)", got-before, 1)
	}
}
