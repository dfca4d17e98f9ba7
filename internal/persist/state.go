// Package persist is the session persistence subsystem: a versioned,
// checksummed binary codec for pipeline session snapshots (the layout plus
// the incremental engine's overlap pairs, crossing pairs, cluster results
// and DRC cache, all naming features by layout index) and a Store interface
// with memory and disk implementations for the snapshot index. aapsmd uses it to survive restarts: sessions
// are snapshotted on eviction and on periodic/drain-time flushes, and a
// restarted replica rehydrates a session from its snapshot instead of
// re-detecting from scratch.
package persist

import (
	"repro/internal/core"
	"repro/internal/layout"
)

// Memoized-stage bits of SessionState.Memo, in pipeline dependency order.
// A set bit means the stage had a memoized outcome (value or error) at
// snapshot time; restore re-runs exactly those stages, which reproduces the
// outcomes bit-identically because every stage is deterministic given the
// restored engine state.
const (
	MemoDetect uint8 = 1 << iota
	MemoAssign
	MemoCorrect
	MemoMask
	MemoDRC
	MemoJunctions
)

// SessionState is the complete serializable state of a pipeline session:
// the engine configuration fingerprint it is only valid under, the session's
// work counters and memoized-stage bits, and the incremental engine state.
type SessionState struct {
	// Configuration fingerprint. A snapshot restores only into an engine
	// with the same rules, graph kind and detection options: the caches
	// embed decisions (shifter geometry, T-join tie-breaking, recheck mode)
	// that silently change under a different configuration.
	Rules layout.Rules
	Kind  core.GraphKind
	// Opt is the core detection configuration with Workers normalized to
	// zero — parallelism affects wall clock only, never results, so it is
	// not part of the fingerprint.
	Opt core.Options
	// Profile is the rules-profile registry name the engine was configured
	// from ("" for custom rules). Part of the fingerprint: services key
	// per-profile engines by it when rehydrating.
	Profile string

	DetectRuns int
	Edits      int

	// Memo records which pipeline stages had a memoized outcome (Memo*
	// bits).
	Memo uint8

	Inc core.IncrementalState
}
