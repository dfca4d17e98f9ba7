package aapsm

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/persist"
)

// ErrSnapshotMismatch reports a snapshot taken under a different engine
// configuration (rules, graph kind or detection options) than the engine
// asked to restore it. The incremental caches embed configuration-dependent
// decisions, so restoring across configurations would silently change
// results; re-create the session from the layout instead.
var ErrSnapshotMismatch = errors.New("aapsm: snapshot was taken under a different engine configuration")

// Snapshot serializes the session — layout, incremental detection caches,
// stage memo map and work counters — into the versioned persist format.
// The snapshot restores bit-identically via Engine.RestoreSession on an
// engine with the same configuration.
//
// A session with uncommitted edits (mutated since its last Detect) is still
// snapshottable, but the parts of the incremental cache that describe
// pre-edit geometry cannot survive serialization; the restored session then
// runs its next detection from scratch. Snapshot after Detect to keep the
// caches warm.
func (s *Session) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.engine.err; err != nil {
		return nil, flowErr(StagePersist, s.layout.Name, err)
	}
	inc, err := s.incLocked()
	if err != nil {
		return nil, flowErr(StagePersist, s.layout.Name, fmt.Errorf("snapshot: %w", err))
	}
	st := &persist.SessionState{
		Rules:      s.engine.rules,
		Kind:       s.engine.opts.Graph,
		Opt:        s.engine.opts.coreOptions(),
		Profile:    s.engine.profile,
		DetectRuns: s.detectRuns,
		Edits:      s.edits,
		Inc:        *inc.ExportState(),
	}
	st.Opt.Workers = 0 // parallelism never affects results
	if s.detect.done {
		st.Memo |= persist.MemoDetect
	}
	if s.assignment.done {
		st.Memo |= persist.MemoAssign
	}
	if s.correction.done {
		st.Memo |= persist.MemoCorrect
	}
	if s.maskView.done {
		st.Memo |= persist.MemoMask
	}
	if s.drcResult.done {
		st.Memo |= persist.MemoDRC
	}
	if s.junctions.done {
		st.Memo |= persist.MemoJunctions
	}
	return persist.Encode(st), nil
}

// RestoreSession rebuilds a session from a Snapshot. The engine must have
// the same configuration the snapshot was taken under (ErrSnapshotMismatch
// otherwise). The restored session serves every pipeline stage bit-identical
// to the one that was snapshotted, including memoized stage errors, and its
// incremental caches are as warm as they were at snapshot time.
//
// ctx bounds the stage re-runs that rebuild memoized results; a cancelled
// restore returns the context error and no session.
func (e *Engine) RestoreSession(ctx context.Context, data []byte) (*Session, error) {
	return e.RestoreSessionWithParallelism(ctx, data, 0)
}

// RestoreSessionWithParallelism is RestoreSession with the per-session
// detection worker bound of NewSessionWithParallelism (n <= 0 keeps the
// engine default).
func (e *Engine) RestoreSessionWithParallelism(ctx context.Context, data []byte, n int) (*Session, error) {
	if e.err != nil {
		return nil, flowErr(StagePersist, "", e.err)
	}
	st, err := persist.Decode(data)
	if err != nil {
		return nil, flowErr(StagePersist, "", err)
	}
	opt := e.opts.coreOptions()
	opt.Workers = 0
	if st.Rules != e.rules || st.Kind != e.opts.Graph || st.Opt != opt || st.Profile != e.profile {
		return nil, flowErr(StagePersist, "", fmt.Errorf("%w (snapshot: rules=%+v kind=%d opt=%+v profile=%q; engine: rules=%+v kind=%d opt=%+v profile=%q)",
			ErrSnapshotMismatch, st.Rules, st.Kind, st.Opt, st.Profile, e.rules, e.opts.Graph, opt, e.profile))
	}
	inc, err := core.RestoreIncremental(ctx, &st.Inc, e.rules, e.opts.Graph, e.opts.coreOptions())
	if err != nil {
		// A cancelled rebuild says nothing about the snapshot.
		if !fanout.IsContextErr(err) {
			err = fmt.Errorf("%w: %w", persist.ErrCorrupt, err)
		}
		return nil, flowErr(StagePersist, "", err)
	}
	s := &Session{engine: e, layout: inc.Layout(), inc: inc}
	if n > 0 {
		s.detectWorkers = n
	}
	// Rebuild the memoized stage outcomes by re-running exactly the stages
	// that were memoized, in pipeline order. Each re-run is deterministic
	// given the restored incremental state — detection returns the cached
	// generation and every later stage is a pure function of it and the
	// layout — so values AND memoized errors come back bit-identical. Only
	// context errors abort the restore.
	if err := s.rerunMemo(ctx, st.Memo); err != nil {
		return nil, err
	}
	// The re-runs bumped work counters and reuse stats that the original
	// session had already accounted for; reset them to the snapshot values.
	s.mu.Lock()
	s.detectRuns = st.DetectRuns
	s.edits = st.Edits
	inc.RestoreStats(st.Inc.Stats)
	s.mu.Unlock()
	return s, nil
}

// SnapshotProfile reports the rules-profile name a snapshot was taken under
// ("" for custom rules), without restoring it. Services holding per-profile
// engines use it to route a rehydration to the right engine before paying
// for the restore.
func SnapshotProfile(data []byte) (string, error) {
	st, err := persist.Decode(data)
	if err != nil {
		return "", flowErr(StagePersist, "", err)
	}
	return st.Profile, nil
}

// rerunMemo replays the memoized pipeline stages recorded in memo. Pipeline
// errors are expected (they re-memoize the error the original session held);
// context errors abort.
func (s *Session) rerunMemo(ctx context.Context, memo uint8) error {
	steps := []struct {
		bit uint8
		run func() error
	}{
		{persist.MemoDetect, func() error { _, err := s.Detect(ctx); return err }},
		{persist.MemoAssign, func() error { _, err := s.Assignment(ctx); return err }},
		{persist.MemoCorrect, func() error { _, err := s.Correction(ctx); return err }},
		{persist.MemoMask, func() error { _, err := s.Mask(ctx); return err }},
		{persist.MemoDRC, func() error { s.DRC(); return nil }},
		{persist.MemoJunctions, func() error { s.Junctions(); return nil }},
	}
	for _, step := range steps {
		if memo&step.bit == 0 {
			continue
		}
		if err := step.run(); err != nil && fanout.IsContextErr(err) {
			return err
		}
	}
	return nil
}
