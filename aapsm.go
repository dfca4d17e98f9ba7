// Package aapsm detects and corrects phase conflicts in bright-field
// Alternating-Aperture Phase Shift Mask (AAPSM) layouts.
//
// It reproduces C. Chiang, A. B. Kahng, X. Xu and A. Zelikovsky,
// "Bright-Field AAPSM Conflict Detection and Correction", DATE 2005:
//
//   - a phase conflict graph whose bipartiteness is equivalent to the
//     layout being phase-assignable (Theorem 1);
//   - minimal conflict detection by planarizing the graph's geometric
//     drawing and optimally bipartizing the planar remainder through the
//     dual T-join problem, reduced to minimum-weight perfect matching with
//     generalized gadgets;
//   - layout correction by inserting end-to-end spaces chosen through a
//     weighted set cover over the detected conflicts.
//
// Quick start — configure an Engine once, then drive per-layout Sessions;
// each pipeline stage is computed exactly once per session and later stages
// reuse earlier results:
//
//	eng := aapsm.NewEngine()            // Default90nmRules, PCG, generalized gadgets
//	l := aapsm.NewLayout("demo")
//	l.Add(aapsm.R(0, 0, 100, 1000))     // a critical poly wire
//	l.Add(aapsm.R(350, 0, 450, 1000))   // too close: phase conflict
//
//	s := eng.NewSession(l)
//	res, err := s.Detect(ctx)           // conflict graph + detection flow
//	...
//	cor, err := s.Correction(ctx)       // reuses the detection
//	fixed := cor.Layout                 // phase-assignable, DRC-clean
//
// Engines and Sessions are safe for concurrent use; Engine.DetectBatch runs
// many layouts on a bounded worker pool. All stage methods honor context
// cancellation and return typed, errors.Is/As-friendly errors (*FlowError,
// ErrNotAssignable, ErrUnfixable, ErrMaskInconsistent).
//
// Sessions are editable: AddFeature / MoveFeature / DeleteFeature (or a
// batched Edit) mutate a session-private copy of the layout and invalidate
// the memoized stages. Re-running Detect after an edit is incremental — only
// the conflict clusters whose geometric neighborhood changed are re-solved,
// with results bit-identical to a from-scratch detection — so small edits on
// large layouts re-check an order of magnitude faster than a full Detect.
package aapsm

import (
	"io"

	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/drc"
	"repro/internal/gds"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/shifter"
	"repro/internal/tjoin"
)

// Re-exported core types. Aliases keep the internal packages' documentation
// and methods while giving users public names.
type (
	// Layout is a set of rectangular polysilicon features.
	Layout = layout.Layout
	// Feature is one drawn rectangle.
	Feature = layout.Feature
	// Rules are the process parameters (critical width, shifter geometry,
	// DRC minima).
	Rules = layout.Rules
	// Rect is an axis-aligned rectangle in integer nanometers.
	Rect = geom.Rect
	// Point is a plane location in integer nanometers.
	Point = geom.Point
	// Shifter is a synthesized phase-shift aperture.
	Shifter = shifter.Shifter
	// Conflict is one detected AAPSM conflict.
	Conflict = core.Conflict
	// Detection is the detailed result of the detection flow.
	Detection = core.Detection
	// ConflictGraph is the drawn layout graph (PCG or FG).
	ConflictGraph = core.ConflictGraph
	// Assignment maps shifters to phases.
	Assignment = core.Assignment
	// Violation is a broken phase-assignment condition.
	Violation = core.Violation
	// Plan is a chosen set of end-to-end spaces.
	Plan = correct.Plan
	// Cut is one end-to-end space.
	Cut = correct.Cut
	// DRCViolation is a design-rule error.
	DRCViolation = drc.Violation
	// GraphKind selects the graph representation (PCG or FG).
	GraphKind = core.GraphKind
	// IncrementalStats is the work profile of an edited session's
	// incremental detection engine (see SessionStats.Incremental).
	IncrementalStats = core.IncStats
	// Tone selects the mask polarity of a rules set (bright or dark field).
	Tone = layout.Tone
	// Hierarchy is the instance-provenance sidecar a hierarchical GDS read
	// attaches to the flattened layout (Layout.Hier).
	Hierarchy = layout.Hierarchy
	// GDSReadOptions configures ReadGDSWith (top-cell selection, flatten
	// semantics, depth and size limits).
	GDSReadOptions = gds.ReadOptions
)

// Mask polarities.
const (
	// BrightField is the paper's setup: chrome features on a clear mask.
	BrightField = layout.BrightField
	// DarkField is the inverted-tone variant: clear apertures in chrome.
	DarkField = layout.DarkField
)

// Graph representations.
const (
	// PCG is the paper's phase conflict graph (recommended).
	PCG = core.PCG
	// FG is the feature-graph baseline it improves upon.
	FG = core.FG
)

// NewLayout creates an empty layout.
func NewLayout(name string) *Layout { return layout.New(name) }

// R builds a rectangle from two corners in any order.
func R(x0, y0, x1, y1 int64) Rect { return geom.R(x0, y0, x1, y1) }

// Default90nmRules returns representative 90 nm-node process rules.
func Default90nmRules() Rules { return layout.Default90nm() }

// TJoinMethod selects the reduction used by the optimal bipartization step.
type TJoinMethod int

const (
	// GeneralizedGadgets is the paper's reduction and the default. It
	// matches on fewer nodes than OptimizedGadgets, but it is not the
	// fastest method: on one CPU of a 2-vCPU VM, d5 detects about as fast
	// with either gadget and 1.2–1.4× faster with LawlerReduction, and on
	// designs with large dense clusters LawlerReduction is 2–3× faster.
	// All three find the same conflicts; only the gadget counts differ.
	GeneralizedGadgets TJoinMethod = iota
	// OptimizedGadgets is the TCAD'99 baseline reduction.
	OptimizedGadgets
	// LawlerReduction solves the T-join via shortest-path metric closure;
	// it is the fastest of the three.
	LawlerReduction
)

// DetectOptions is an engine's detection configuration (see
// Engine.DetectOptions).
type DetectOptions struct {
	// Graph selects PCG (default) or the FG baseline.
	Graph GraphKind
	// Method selects the T-join reduction.
	Method TJoinMethod
	// ImprovedRecheck enables the parity-based re-admission of
	// planarization-removed edges (never selects more conflicts than the
	// paper's coloring recheck).
	ImprovedRecheck bool
}

func (o DetectOptions) coreOptions() core.Options {
	var c core.Options
	switch o.Method {
	case OptimizedGadgets:
		c.TJoin.Method = tjoin.MethodOptimizedGadget
	case LawlerReduction:
		c.TJoin.Method = tjoin.MethodLawler
	}
	if o.ImprovedRecheck {
		c.Recheck = core.RecheckParity
	}
	return c
}

// Result bundles the detection output with the graph it ran on.
type Result struct {
	Graph     *ConflictGraph
	Detection *Detection
}

// Conflicts returns the final selected AAPSM conflicts.
func (r *Result) Conflicts() []Conflict { return r.Detection.FinalConflicts }

// Assignable reports whether the layout needed no repairs.
func (r *Result) Assignable() bool { return len(r.Detection.FinalConflicts) == 0 }

// DetectGreedy runs the greedy-bipartization baseline (Table 1 column GB).
func DetectGreedy(l *Layout, rules Rules, kind GraphKind) (*Result, error) {
	cg, err := core.BuildGraph(l, rules, kind)
	if err != nil {
		return nil, err
	}
	return &Result{Graph: cg, Detection: core.GreedyDetect(cg)}, nil
}

// Assignable implements Theorem 1: the layout admits a valid phase
// assignment iff its phase conflict graph is bipartite.
func Assignable(l *Layout, rules Rules) (bool, error) {
	return core.IsPhaseAssignable(l, rules)
}

// VerifyAssignment checks an assignment against all (non-waived)
// constraints.
func VerifyAssignment(a *Assignment, r *Result) []Violation {
	return a.Verify(r.Graph)
}

// Correction is the output of Session.Correction.
type Correction struct {
	Plan   *Plan
	Layout *Layout // the modified, phase-assignable layout
	Stats  correct.Stats
}

// ReadLayoutText parses the plain-text layout interchange format.
func ReadLayoutText(r io.Reader) (*Layout, error) { return layout.ReadText(r) }

// WriteLayoutText serializes a layout to the plain-text format.
func WriteLayoutText(w io.Writer, l *Layout) error { return l.WriteText(w) }

// ReadGDS parses a GDSII stream (1 nm units): flat or hierarchical
// libraries, rectangular or rectilinear-polygon boundaries. Hierarchies are
// flattened with default limits and keep their instance-provenance sidecar
// (Layout.Hier); use ReadGDSWith to pick a top cell or adjust limits.
func ReadGDS(r io.Reader) (*Layout, error) { return gds.Read(r) }

// ReadGDSWith parses a GDSII stream under explicit reader options.
func ReadGDSWith(r io.Reader, opt GDSReadOptions) (*Layout, error) { return gds.ReadWith(r, opt) }

// WriteGDS serializes a layout as a GDSII stream.
func WriteGDS(w io.Writer, l *Layout) error { return gds.Write(w, l) }
