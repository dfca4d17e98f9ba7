package aapsm

import (
	"context"
	"runtime"
	"slices"

	"repro/internal/fanout"
)

// Engine is an immutable configuration of the AAPSM flow: process rules,
// graph representation, T-join reduction, recheck mode and worker count.
// Build one with NewEngine and functional options; a single Engine is safe
// for concurrent use from any number of goroutines and is the factory for
// per-layout Sessions.
//
//	eng := aapsm.NewEngine(
//		aapsm.WithRules(aapsm.Default90nmRules()),
//		aapsm.WithGraph(aapsm.PCG),
//		aapsm.WithImprovedRecheck(true),
//	)
//	s := eng.NewSession(l)
//	res, err := s.Detect(ctx)
type Engine struct {
	rules   Rules
	opts    DetectOptions
	workers int
	// profile is the registry name the rules came from ("" for custom rules
	// set via WithRules).
	profile string
	// err is the sticky construction error (e.g. WithProfile with an unknown
	// name); every stage of every session derived from the engine reports it.
	err error
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithRules sets the process rules (default: Default90nmRules). It resets
// the engine's profile name to "" (custom rules); use WithProfile to pick a
// registered preset by name.
func WithRules(r Rules) EngineOption {
	return func(e *Engine) { e.rules, e.profile = r, "" }
}

// WithGraph selects the graph representation: PCG (default) or the FG
// baseline.
func WithGraph(k GraphKind) EngineOption {
	return func(e *Engine) { e.opts.Graph = k }
}

// WithTJoinMethod selects the reduction used by the optimal bipartization
// step (default: GeneralizedGadgets, the paper's). The method changes only
// the detection time and the gadget counts in the stats; the conflicts and
// every other count are the same. LawlerReduction is the fastest: 1.2–1.4×
// faster than either gadget reduction on d5 and 2–3× on designs with large
// dense clusters (one CPU of a 2-vCPU VM).
func WithTJoinMethod(m TJoinMethod) EngineOption {
	return func(e *Engine) { e.opts.Method = m }
}

// WithImprovedRecheck toggles the parity-based re-admission of
// planarization-removed edges in flow step 3 (never selects more conflicts
// than the paper's coloring recheck; default off = the paper's method).
func WithImprovedRecheck(on bool) EngineOption {
	return func(e *Engine) { e.opts.ImprovedRecheck = on }
}

// WithParallelism bounds the engine's fan-out (n <= 0 means
// runtime.GOMAXPROCS(0), the default). Both levels of fan-out share one
// bounded worker pool implementation and one budget: a detection processes
// up to n conflict clusters concurrently (detection shards the flow by
// cluster; results are bit-identical for any n), and DetectBatch runs up to
// n layouts concurrently, each detection then getting n divided by the
// batch width as its cluster workers.
func WithParallelism(n int) EngineOption {
	return func(e *Engine) { e.workers = n }
}

// NewEngine builds an immutable Engine from the options.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{rules: Default90nmRules()}
	for _, o := range opts {
		o(e)
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	return e
}

// Rules returns the engine's process rules.
func (e *Engine) Rules() Rules { return e.rules }

// Profile returns the registry name of the engine's rules profile, or ""
// when the rules were set directly with WithRules (or defaulted).
func (e *Engine) Profile() string { return e.profile }

// Err returns the engine's sticky construction error, nil for a usable
// engine. A non-nil Err (e.g. WithProfile with an unregistered name) is also
// returned by every stage of every session the engine creates.
func (e *Engine) Err() error { return e.err }

// DetectOptions returns the engine's detection configuration.
func (e *Engine) DetectOptions() DetectOptions { return e.opts }

// Parallelism returns the DetectBatch worker bound.
func (e *Engine) Parallelism() int { return e.workers }

// NewSession starts a pipeline session on one layout. The session works on a
// private copy of l from its first detect, DRC, snapshot or edit onward; l
// must not be mutated before then.
func (e *Engine) NewSession(l *Layout) *Session {
	return &Session{engine: e, layout: l}
}

// NewSessionWithParallelism starts a session whose detection uses at most n
// shard workers instead of the engine-wide bound (n <= 0 keeps the default).
// Services multiplexing many concurrent sessions over one engine use this
// the same way DetectBatch divides its budget: each session gets a small
// per-detection fan-out so total concurrency stays near the request-level
// parallelism instead of multiplying by it.
func (e *Engine) NewSessionWithParallelism(l *Layout, n int) *Session {
	s := e.NewSession(l)
	if n > 0 {
		s.detectWorkers = n
	}
	return s
}

// Detect is the one-shot form of NewSession(l).Detect(ctx) for callers that
// do not need later stages.
func (e *Engine) Detect(ctx context.Context, l *Layout) (*Result, error) {
	return e.NewSession(l).Detect(ctx)
}

// DetectBatch runs detection over many layouts on the shared bounded worker
// pool of at most Parallelism() goroutines. Results are returned in input
// order. On failure the remaining work is cancelled and the first causal
// error is returned (a *FlowError naming the failing layout); results
// computed before the failure are still present in the returned slice.
//
// The worker budget is shared, not compounded: each batch-invoked detection
// gets Parallelism()/batchWidth shard workers (at least 1), so the total
// concurrency stays near Parallelism() instead of squaring it.
func (e *Engine) DetectBatch(ctx context.Context, layouts []*Layout) ([]*Result, error) {
	if len(layouts) == 0 {
		return nil, nil
	}
	results := make([]*Result, len(layouts))
	inner := max(1, e.workers/min(e.workers, len(layouts)))
	err := fanout.Run(ctx, len(layouts), e.workers, func(ctx context.Context, i int) error {
		s := e.NewSession(layouts[i])
		s.detectWorkers = inner
		r, err := s.Detect(ctx)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		// flowErr keeps a detection's own *FlowError. A bare context error
		// comes from a skipped layout: the first one left without a result.
		i := slices.IndexFunc(results, func(r *Result) bool { return r == nil })
		err = flowErr(StageDetect, layouts[i].Name, err)
	}
	return results, err
}
