package aapsm

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/drc"
	"repro/internal/fanout"
	"repro/internal/mask"
	"repro/internal/tshape"
)

// Session drives the paper's pipeline on one layout. Each stage — Detect,
// Assignment, Correction, Mask, DRC — is computed at most once and memoized;
// later stages transparently reuse earlier results, so
//
//	s := eng.NewSession(l)
//	a, _ := s.Assignment(ctx)   // runs detection once
//	c, _ := s.Correction(ctx)   // reuses the detection
//	m, _ := s.Mask(ctx)         // reuses detection and assignment
//
// builds the conflict graph exactly once. A Session is safe for concurrent
// use: stage computation is serialized internally and concurrent callers of
// a computed stage share the memoized value. Stage methods honor ctx
// cancellation down to the matching solver's inner loop; a cancelled attempt
// is NOT memoized, so the stage can be retried with a live context.
//
// Every stage runs through one incremental engine, armed the first time the
// session detects, checks DRC, snapshots or is edited. Arming switches the
// session onto a private copy of the layout (the caller's layout is never
// mutated). A Session also supports in-place layout edits: AddFeature,
// MoveFeature, DeleteFeature, and the batched Edit. Every edit invalidates
// the memoized stages, and the next Detect solves only the conflict
// clusters whose content the previous detection did not have, taking every
// other cluster's result from its store. Results are bit-identical to a
// from-scratch detection of the edited layout. Edits also clear memoized
// stage errors, so a layout that was ErrNotAssignable can be fixed and
// re-checked on the same session.
//
// The input layout must not be mutated by the caller until the session has
// armed.
type Session struct {
	engine *Engine
	layout *Layout
	// detectWorkers, when positive, overrides the engine's worker bound for
	// this session's detection (DetectBatch divides its budget this way).
	detectWorkers int

	mu sync.Mutex
	// detectRuns and edits count work done, for Stats. Both guarded by mu.
	detectRuns int // guarded by mu
	edits      int // guarded by mu
	// gen counts invalidation epochs: it advances once per mutation batch
	// (Edit) or standalone mutation, so two reads of equal generation are
	// guaranteed to observe the same layout state. Servers use it to key
	// coalesced in-flight reads and to tag streamed stage results. Guarded
	// by mu (read via Generation).
	gen int64
	// inc is the incremental engine every stage runs through, armed by
	// incLocked on the session's first detect, DRC, snapshot or edit; once
	// set, s.layout aliases inc.Layout(). Detection re-solves only the
	// conflict clusters an edit touched, and DRC re-probes only edited
	// neighborhoods. Assignment, verification, correction and mask
	// validation are linear or n log n passes and rerun in full. Guarded by
	// mu.
	inc *core.Incremental

	// The memoized stage outcomes. All guarded by mu.
	detect     stage[*Result]        // guarded by mu
	assignment stage[*Assignment]    // guarded by mu
	correction stage[*Correction]    // guarded by mu
	maskView   stage[*Layout]        // guarded by mu
	drcResult  stage[[]DRCViolation] // guarded by mu
	junctions  stage[[]Junction]     // guarded by mu
}

// stage memoizes one pipeline step: its value, or its first non-context
// error.
type stage[T any] struct {
	done bool
	val  T
	err  error
}

// memoLocked returns the cached stage value or computes it with f. The
// session mutex must be held. Context errors are returned but not cached.
func memoLocked[T any](s *Session, st *stage[T], ctx context.Context, fs FlowStage, f func(context.Context) (T, error)) (T, error) {
	if st.done {
		return st.val, st.err
	}
	var zero T
	if err := s.engine.err; err != nil {
		return zero, flowErr(fs, s.layout.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return zero, flowErr(fs, s.layout.Name, err)
	}
	v, err := f(ctx)
	if err != nil {
		err = flowErr(fs, s.layout.Name, err)
		if fanout.IsContextErr(err) {
			return zero, err // retryable: do not poison the session
		}
		st.done, st.err = true, err
		return zero, err
	}
	st.done, st.val = true, v
	return v, nil
}

// Engine returns the engine this session was created by.
func (s *Session) Engine() *Engine { return s.engine }

// SnapshotLayout returns an independent deep copy of the session's current
// layout, taken atomically with respect to concurrent edits. Unlike Layout,
// the returned value is owned by the caller: it stays valid (and frozen)
// while other goroutines keep editing the session, so it is safe to
// serialize, diff, or hand to another Engine. Long-running services use this
// as the export hook for sessions that never leave the store.
func (s *Session) SnapshotLayout() *Layout {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.layout.Clone()
}

// Layout returns the session's current layout: the input layout until the
// session arms, its private copy from the first stage or edit onward.
// Callers must treat it as read-only; mutate through the edit methods.
func (s *Session) Layout() *Layout {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.layout
}

// NumFeatures returns the current feature count, read under the session
// lock — safe against concurrent edits, unlike len(Layout().Features).
func (s *Session) NumFeatures() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.layout.Features)
}

// LayoutName returns the layout's name, read under the session lock. Edits
// never change the name, so metadata readers can use this instead of
// cloning the whole layout with SnapshotLayout.
func (s *Session) LayoutName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.layout.Name
}

// SessionStats reports how much pipeline work a session has actually done.
type SessionStats struct {
	// DetectRuns counts how many times the detection flow executed.
	// Memoization keeps this at most 1 per edit generation: stages share one
	// detection until the next mutation invalidates it.
	DetectRuns int
	// Edits counts accepted layout mutations.
	Edits int
	// Incremental reports the incremental engine's cumulative work profile
	// (shards reused vs re-solved); zero until the session's first detect or
	// edit.
	Incremental IncrementalStats
}

// Generation returns the session's invalidation epoch: it advances once per
// mutation batch (or standalone mutation), never otherwise. Two stage reads
// taken at the same generation reflect the same layout state, which is what
// lets callers coalesce identical read requests or tag streamed results.
func (s *Session) Generation() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Stats returns the session's work counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{DetectRuns: s.detectRuns, Edits: s.edits, Incremental: s.inc.Stats()}
}

// incLocked returns the session's incremental engine, arming it on first use:
// the engine takes a private copy of the layout, which the session works on
// from then on. Arming fails only on rules that do not validate.
func (s *Session) incLocked() (*core.Incremental, error) {
	if s.inc == nil {
		inc, err := core.NewIncremental(s.layout, s.engine.rules, s.engine.opts.Graph, s.engine.opts.coreOptions())
		if err != nil {
			return nil, err
		}
		s.inc, s.layout = inc, inc.Layout()
	}
	return s.inc, nil
}

// invalidateLocked drops every memoized stage value and error after a
// mutation. Detection state inside the incremental engine survives — that is
// what makes the next Detect cheap.
func (s *Session) invalidateLocked() {
	s.gen++
	s.detect = stage[*Result]{}
	s.assignment = stage[*Assignment]{}
	s.correction = stage[*Correction]{}
	s.maskView = stage[*Layout]{}
	s.drcResult = stage[[]DRCViolation]{}
	s.junctions = stage[[]Junction]{}
}

// EnableEdits does nothing and returns nil.
//
// Deprecated: every session is incremental; its first detection already
// seeds the per-cluster cache that later edits reuse.
func (s *Session) EnableEdits() error { return nil }

// AddFeature appends a feature rectangle on layer 0 and returns its index.
func (s *Session) AddFeature(r Rect) (int, error) {
	return s.AddFeatureOnLayer(r, 0)
}

// AddFeatureOnLayer appends a feature on an explicit layer and returns its
// index.
func (s *Session) AddFeatureOnLayer(r Rect, layer int) (int, error) {
	var i int
	err := s.Edit(func(ed *LayoutEditor) { i = ed.AddOnLayer(r, layer) })
	return i, err
}

// MoveFeature moves (or resizes) feature i to rectangle r.
func (s *Session) MoveFeature(i int, r Rect) error {
	return s.Edit(func(ed *LayoutEditor) { ed.Move(i, r) })
}

// DeleteFeature removes feature i; features after it shift down one index,
// as with a slice deletion.
func (s *Session) DeleteFeature(i int) error {
	return s.Edit(func(ed *LayoutEditor) { ed.Delete(i) })
}

// LayoutEditor applies a batch of mutations inside Session.Edit. Operations
// apply immediately in call order; after the first failing operation (an
// out-of-range index) the remaining calls are no-ops and Edit returns the
// error. The editor must not escape the Edit callback, and the callback must
// not call other methods of the same Session (the session lock is held).
type LayoutEditor struct {
	s   *Session
	err error
}

// Add appends a feature rectangle on layer 0 and returns its index.
func (ed *LayoutEditor) Add(r Rect) int { return ed.AddOnLayer(r, 0) }

// AddOnLayer appends a feature on an explicit layer and returns its index.
//
//aapsmvet:holds mu Edit holds the session lock for the whole batch
func (ed *LayoutEditor) AddOnLayer(r Rect, layer int) int {
	if ed.err != nil {
		return -1
	}
	i := ed.s.inc.AddFeature(r, layer)
	ed.s.edits++
	return i
}

// Move moves (or resizes) feature i to rectangle r.
//
//aapsmvet:holds mu Edit holds the session lock for the whole batch
func (ed *LayoutEditor) Move(i int, r Rect) {
	if ed.err != nil {
		return
	}
	if err := ed.s.inc.MoveFeature(i, r); err != nil {
		ed.err = err
		return
	}
	ed.s.edits++
}

// Delete removes feature i (later features shift down one index).
//
//aapsmvet:holds mu Edit holds the session lock for the whole batch
func (ed *LayoutEditor) Delete(i int) {
	if ed.err != nil {
		return
	}
	if err := ed.s.inc.DeleteFeature(i); err != nil {
		ed.err = err
		return
	}
	ed.s.edits++
}

// Err returns the first operation error, if any.
func (ed *LayoutEditor) Err() error { return ed.err }

// NumFeatures returns the current feature count, reflecting the operations
// applied so far in this batch.
func (ed *LayoutEditor) NumFeatures() int { return len(ed.s.layout.Features) }

// Feature returns feature i of the current (mid-batch) layout.
func (ed *LayoutEditor) Feature(i int) Feature { return ed.s.layout.Features[i] }

// Edit applies a batch of mutations atomically with respect to other session
// callers: fn runs under the session lock and the memoized stages are
// invalidated once, after the whole batch, if any operation applied. The
// next Detect then re-solves only the conflict clusters the batch touched.
// Edit returns the first operation error (a *FlowError at StageEdit);
// operations before the failure remain applied.
func (s *Session) Edit(fn func(*LayoutEditor)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.incLocked(); err != nil {
		return flowErr(StageEdit, s.layout.Name, err)
	}
	// Invalidate via defer once an op has applied: ops apply as fn runs, so
	// even a panicking callback must not leave memoized pre-edit stages
	// behind, while a batch that applied nothing keeps them.
	edits := s.edits
	defer func() {
		if s.edits != edits {
			s.invalidateLocked()
		}
	}()
	ed := &LayoutEditor{s: s}
	fn(ed)
	if ed.err != nil {
		return flowErr(StageEdit, s.layout.Name, ed.err)
	}
	return nil
}

// Detect synthesizes shifters, builds the conflict graph and runs the full
// detection flow of the paper's §3. The result is memoized; concurrent and
// repeated calls share one computation.
func (s *Session) Detect(ctx context.Context) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detectLocked(ctx)
}

func (s *Session) detectLocked(ctx context.Context) (*Result, error) {
	return memoLocked(s, &s.detect, ctx, StageDetect, func(ctx context.Context) (*Result, error) {
		s.detectRuns++
		inc, err := s.incLocked()
		if err != nil {
			return nil, err
		}
		workers := s.engine.workers
		if s.detectWorkers > 0 {
			workers = s.detectWorkers
		}
		// The first detection solves every cluster; later ones reuse every
		// cluster result the edits since did not touch.
		inc.SetWorkers(workers)
		det, err := inc.Detect(ctx)
		if err != nil {
			return nil, err
		}
		return &Result{Graph: det.Graph, Detection: det}, nil
	})
}

// RequireAssignable runs detection (or reuses it) and returns a typed
// ErrNotAssignable *FlowError when the layout needs repairs, nil when it is
// phase-assignable as drawn.
func (s *Session) RequireAssignable(ctx context.Context) error {
	res, err := s.Detect(ctx)
	if err != nil {
		return err
	}
	if !res.Assignable() {
		return flowErr(StageDetect, s.layout.Name,
			fmt.Errorf("%w: %d conflicts detected", ErrNotAssignable, len(res.Conflicts())))
	}
	return nil
}

// Assignment extracts 0°/180° shifter phases from the (memoized) detection
// result, waiving detected conflicts pending correction, and verifies the
// assignment against all non-waived constraints.
func (s *Session) Assignment(ctx context.Context) (*Assignment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.assignmentLocked(ctx)
}

func (s *Session) assignmentLocked(ctx context.Context) (*Assignment, error) {
	return memoLocked(s, &s.assignment, ctx, StageAssign, func(ctx context.Context) (*Assignment, error) {
		res, err := s.detectLocked(ctx)
		if err != nil {
			return nil, err
		}
		a, err := core.AssignPhases(res.Detection)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotAssignable, err)
		}
		if v := a.Verify(res.Graph); len(v) != 0 {
			return nil, fmt.Errorf("assignment verification failed: %v", v[0])
		}
		return a, nil
	})
}

// Correction plans and applies end-to-end spaces fixing every correctable
// conflict found by the (memoized) detection. The session's input layout is
// not modified; the corrected copy is in Correction.Layout. Conflicts that
// spacing cannot fix are listed in Correction.Plan.Unfixable — use
// CorrectedLayout to turn that into a typed error.
func (s *Session) Correction(ctx context.Context) (*Correction, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.correctionLocked(ctx)
}

func (s *Session) correctionLocked(ctx context.Context) (*Correction, error) {
	return memoLocked(s, &s.correction, ctx, StageCorrect, func(ctx context.Context) (*Correction, error) {
		res, err := s.detectLocked(ctx)
		if err != nil {
			return nil, err
		}
		plan, err := correct.BuildPlan(s.layout, s.engine.rules, res.Graph.Set, res.Detection.FinalConflicts)
		if err != nil {
			return nil, err
		}
		mod := correct.Apply(s.layout, plan)
		return &Correction{Plan: plan, Layout: mod, Stats: correct.Summarize(s.layout, plan, mod)}, nil
	})
}

// CorrectedLayout returns the fully corrected, phase-assignable layout. It
// fails with a *FlowError wrapping ErrUnfixable when some conflicts cannot
// be fixed by end-to-end spacing alone (route those to widening or mask
// splitting via PlanWidening).
func (s *Session) CorrectedLayout(ctx context.Context) (*Layout, error) {
	cor, err := s.Correction(ctx)
	if err != nil {
		return nil, err
	}
	if n := len(cor.Plan.Unfixable); n != 0 {
		return nil, flowErr(StageCorrect, s.layout.Name,
			fmt.Errorf("%w: %d conflicts remain", ErrUnfixable, n))
	}
	return cor.Layout, nil
}

// Mask validates and builds the multi-layer manufacturing view (chrome +
// 0°/180° aperture layers) from the memoized detection and assignment; the
// result is suitable for WriteGDS. Validation problems surface as a
// *FlowError wrapping ErrMaskInconsistent.
func (s *Session) Mask(ctx context.Context) (*Layout, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return memoLocked(s, &s.maskView, ctx, StageMask, func(ctx context.Context) (*Layout, error) {
		res, err := s.detectLocked(ctx)
		if err != nil {
			return nil, err
		}
		a, err := s.assignmentLocked(ctx)
		if err != nil {
			return nil, err
		}
		if p := mask.Validate(s.layout, res.Graph.Set, a.Phases, a.Waived, s.engine.rules); len(p) != 0 {
			return nil, fmt.Errorf("%w: %s", ErrMaskInconsistent, p[0])
		}
		return mask.Build(s.layout, res.Graph.Set, a.Phases, s.engine.rules.Tone)
	})
}

// DRC runs the design-rule checks on the session's current layout
// (memoized). The violating spacing pairs are cached across edits and only
// edited neighborhoods are re-probed; the result is bit-identical to a
// from-scratch drc.Check. Rules that the incremental engine rejects are
// still checked, by drc.Check itself.
func (s *Session) DRC() []DRCViolation {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.drcResult.done {
		if inc, err := s.incLocked(); err != nil {
			s.drcResult.val = drc.Check(s.layout, s.engine.rules)
		} else {
			s.drcResult.val = inc.DRC()
		}
		s.drcResult.done = true
	}
	return s.drcResult.val
}

// Junctions locates all touching-feature junctions in the layout (memoized).
func (s *Session) Junctions() []Junction {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.junctions.done {
		s.junctions.val = tshape.Find(s.layout)
		s.junctions.done = true
	}
	return s.junctions.val
}

// RenderSVG draws the layout with the session's detection and assignment
// overlays (computing them if needed, reusing them otherwise). If the
// correction stage has already run, its cut lines are drawn too. The output
// itself is not memoized: every call writes a fresh document to w.
func (s *Session) RenderSVG(ctx context.Context, w io.Writer) error {
	// Compute (or fetch) the overlays and snapshot the layout under the
	// session lock, but write outside it: stage results are immutable once
	// memoized, and a slow w must not block other goroutines' stage calls.
	// The layout itself is NOT immutable — an edited session mutates it in
	// place — so rendering must work from a copy taken under the lock, or a
	// concurrent edit would race with the feature scan.
	s.mu.Lock()
	res, err := s.detectLocked(ctx)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	a, err := s.assignmentLocked(ctx)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	opt := RenderOptions{Result: res, Assignment: a}
	if s.correction.done && s.correction.err == nil {
		opt.Plan = s.correction.val.Plan
	}
	lay := s.layout.Clone()
	s.mu.Unlock()
	if err := RenderSVG(w, lay, opt); err != nil {
		return flowErr(StageRender, lay.Name, err)
	}
	return nil
}
