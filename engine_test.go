package aapsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSessionMemoization: detect → assign → correct → mask on one session
// must build the conflict graph and run detection exactly once.
func TestSessionMemoization(t *testing.T) {
	ctx := context.Background()
	s := NewEngine().NewSession(Figure1Layout())

	res1, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Assignment(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Correction(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mask(ctx); err != nil {
		t.Fatal(err)
	}
	var svg bytes.Buffer
	if err := s.RenderSVG(ctx, &svg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Error("RenderSVG produced no SVG document")
	}
	res2, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("repeated Detect must return the memoized *Result")
	}
	if runs := s.Stats().DetectRuns; runs != 1 {
		t.Fatalf("conflict graph built %d times across detect+assign+correct+mask+svg, want 1", runs)
	}
}

// TestSessionConcurrentStages: many goroutines hitting all stages of one
// session must share a single detection (run with -race).
func TestSessionConcurrentStages(t *testing.T) {
	ctx := context.Background()
	s := NewEngine().NewSession(GenerateBenchmark("conc", DefaultBenchmarkParams(5, 2, 60)))

	var wg sync.WaitGroup
	results := make([]*Result, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Detect(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
			if _, err := s.Assignment(ctx); err != nil {
				t.Error(err)
			}
			if _, err := s.Correction(ctx); err != nil {
				t.Error(err)
			}
			s.DRC()
			s.Junctions()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent Detect callers must share one memoized *Result")
		}
	}
	if runs := s.Stats().DetectRuns; runs != 1 {
		t.Fatalf("detection ran %d times under concurrency, want 1", runs)
	}
}

// TestDetectBatchMatchesSequential: a batch over 8 layouts on 4 workers must
// produce exactly the conflicts sequential detection finds (run with -race).
func TestDetectBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(WithParallelism(4))

	layouts := make([]*Layout, 8)
	for i := range layouts {
		layouts[i] = GenerateBenchmark("b", DefaultBenchmarkParams(int64(100+i), 2, 50+5*i))
	}
	batch, err := eng.DetectBatch(ctx, layouts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(layouts) {
		t.Fatalf("batch returned %d results for %d layouts", len(batch), len(layouts))
	}
	for i, l := range layouts {
		seq, err := eng.Detect(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] == nil {
			t.Fatalf("layout %d: missing batch result", i)
		}
		if got, want := len(batch[i].Conflicts()), len(seq.Conflicts()); got != want {
			t.Errorf("layout %d: batch found %d conflicts, sequential %d", i, got, want)
		}
		for j, c := range batch[i].Conflicts() {
			if c.Edge != seq.Conflicts()[j].Edge {
				t.Errorf("layout %d conflict %d: edge %d != %d", i, j, c.Edge, seq.Conflicts()[j].Edge)
			}
		}
	}
}

// TestSessionContextCancellation: a cancelled context must surface
// context.Canceled through the typed *FlowError, and the failed attempt must
// not be memoized.
func TestSessionContextCancellation(t *testing.T) {
	s := NewEngine().NewSession(Figure5Layout())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := s.Detect(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Detect with cancelled ctx: err = %v, want context.Canceled", err)
	}
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != StageDetect {
		t.Fatalf("err = %#v, want *FlowError at StageDetect", err)
	}
	if _, err := s.Correction(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Correction with cancelled ctx: err = %v, want context.Canceled", err)
	}

	// The cancelled attempt must not poison the session.
	if _, err := s.Detect(context.Background()); err != nil {
		t.Fatalf("Detect after cancellation: %v", err)
	}
	if runs := s.Stats().DetectRuns; runs != 1 {
		t.Fatalf("detection ran %d times, want 1 (cancelled attempts aborted before work)", runs)
	}
}

// TestDetectCancellationMidFlight: a deadline well below the detection
// runtime must abort the flow promptly from inside the hot loops.
func TestDetectCancellationMidFlight(t *testing.T) {
	l := GenerateBenchmark("mid", DefaultBenchmarkParams(21, 4, 200))
	eng := NewEngine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := eng.Detect(ctx, l)
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("detection finished inside 1ms; nothing to cancel")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestDetectBatchCancelled: batch work after a cancelled context must stop.
func TestDetectBatchCancelled(t *testing.T) {
	eng := NewEngine(WithParallelism(4))
	layouts := make([]*Layout, 8)
	for i := range layouts {
		layouts[i] = GenerateBenchmark("bc", DefaultBenchmarkParams(int64(i), 2, 60))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.DetectBatch(ctx, layouts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != StageDetect || fe.Layout != "bc" {
		t.Fatalf("err = %#v, want a *FlowError at StageDetect naming layout bc", err)
	}
}

// TestDetectBatchPartialResults: on one worker the layouts run in input
// order, so a shard panic in the third layout leaves the first two results
// in place, skips the fourth, and surfaces as the third layout's
// *FlowError rather than as the cancellation it caused.
func TestDetectBatchPartialResults(t *testing.T) {
	ctx := context.Background()
	var shards atomic.Int64
	count := func() { shards.Add(1) }
	core.FaultHook.Store(&count)
	defer core.FaultHook.Store(nil)
	if _, err := NewEngine().Detect(ctx, Figure1Layout()); err != nil {
		t.Fatal(err)
	}
	perLayout := shards.Load()

	shards.Store(0)
	poison := func() {
		if shards.Add(1) == 2*perLayout+1 {
			panic("injected shard panic")
		}
	}
	core.FaultHook.Store(&poison)
	layouts := make([]*Layout, 4)
	for i := range layouts {
		layouts[i] = Figure1Layout()
		layouts[i].Name = fmt.Sprintf("l%d", i)
	}
	res, err := NewEngine(WithParallelism(1)).DetectBatch(ctx, layouts)
	var fe *FlowError
	if !errors.Is(err, core.ErrPanic) || !errors.As(err, &fe) || fe.Layout != "l2" {
		t.Fatalf("err = %v, want layout l2's shard panic", err)
	}
	for i, want := range []bool{true, true, false, false} {
		if got := res[i] != nil; got != want {
			t.Errorf("result %d present = %v, want %v", i, got, want)
		}
	}
}

// TestTypedErrors: ErrNotAssignable and ErrUnfixable must be matchable with
// errors.Is through the stage-tagged *FlowError.
func TestTypedErrors(t *testing.T) {
	ctx := context.Background()

	err := NewEngine().NewSession(Figure1Layout()).RequireAssignable(ctx)
	if !errors.Is(err, ErrNotAssignable) {
		t.Fatalf("RequireAssignable on figure 1: err = %v, want ErrNotAssignable", err)
	}
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != StageDetect || fe.Layout != "figure1" {
		t.Fatalf("FlowError = %+v, want detect stage on figure1", fe)
	}

	// tJunctionLayout (extensions_test.go) has conflicts spacing cannot fix.
	s := NewEngine().NewSession(tJunctionLayout())
	_, err = s.CorrectedLayout(ctx)
	if !errors.Is(err, ErrUnfixable) {
		t.Fatalf("CorrectedLayout on T junction: err = %v, want ErrUnfixable", err)
	}
	if !errors.As(err, &fe) || fe.Stage != StageCorrect {
		t.Fatalf("err = %v, want *FlowError at StageCorrect", err)
	}

	// A clean pair corrects fully: CorrectedLayout succeeds.
	clean := NewLayout("clean")
	clean.Add(R(0, 0, 100, 1000))
	clean.Add(R(350, 0, 450, 1000))
	fixed, err := NewEngine().NewSession(clean).CorrectedLayout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := Assignable(fixed, Default90nmRules()); err != nil || !ok {
		t.Fatalf("corrected layout assignable=%v err=%v", ok, err)
	}
}

// TestEngineOptionAccessors: the engine exposes its configuration, and an
// engine's detection agrees with the reference chain under the same
// configuration.
func TestEngineOptionAccessors(t *testing.T) {
	eng := NewEngine(
		WithGraph(FG),
		WithTJoinMethod(LawlerReduction),
		WithImprovedRecheck(true),
		WithParallelism(3),
	)
	opt := eng.DetectOptions()
	if opt.Graph != FG || opt.Method != LawlerReduction || !opt.ImprovedRecheck {
		t.Fatalf("DetectOptions = %+v", opt)
	}
	if eng.Parallelism() != 3 {
		t.Fatalf("Parallelism = %d", eng.Parallelism())
	}

	l := GenerateBenchmark("wrap", DefaultBenchmarkParams(3, 2, 60))
	ctx := context.Background()
	res, err := eng.Detect(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDetection(t, "engine", res, referencePipeline(ctx, eng, l).res)
}

// TestParallelismEquivalence: the engine's worker bound also drives the
// per-cluster detection pool; any setting must produce identical results.
func TestParallelismEquivalence(t *testing.T) {
	ctx := context.Background()
	l := GenerateBenchmark("par", DefaultBenchmarkParams(97, 3, 60))
	ref, err := NewEngine(WithParallelism(1)).Detect(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 8} {
		res, err := NewEngine(WithParallelism(n)).Detect(ctx, l)
		if err != nil {
			t.Fatalf("parallelism %d: %v", n, err)
		}
		if len(res.Conflicts()) != len(ref.Conflicts()) {
			t.Fatalf("parallelism %d: %d conflicts, want %d",
				n, len(res.Conflicts()), len(ref.Conflicts()))
		}
		for i, c := range res.Conflicts() {
			if c.Edge != ref.Conflicts()[i].Edge {
				t.Fatalf("parallelism %d: conflict %d edge %d != %d",
					n, i, c.Edge, ref.Conflicts()[i].Edge)
			}
		}
		if res.Detection.Stats.Shards != ref.Detection.Stats.Shards {
			t.Fatalf("parallelism %d: shard count differs", n)
		}
	}
	if ref.Detection.Stats.Shards < 2 {
		t.Fatalf("expected multiple conflict clusters, got %d", ref.Detection.Stats.Shards)
	}
}

// TestRenderConcurrentWithEdits: RenderSVG must not scan the live layout
// while another goroutine mutates it — the session snapshots under its lock.
// Run with -race.
func TestRenderConcurrentWithEdits(t *testing.T) {
	l := NewLayout("render-race")
	for i := int64(0); i < 8; i++ {
		l.Add(R(i*560, 0, i*560+100, 1000))
	}
	s := NewEngine().NewSession(l)
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.MoveFeature(0, R(i%40, 0, i%40+100, 1000)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := s.RenderSVG(ctx, &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "<svg") {
			t.Fatal("render produced no svg")
		}
	}
	close(stop)
	wg.Wait()
	// NumFeatures reads under the lock too (the serving layer's counter).
	if n := s.NumFeatures(); n != 8 {
		t.Fatalf("NumFeatures = %d, want 8", n)
	}
}
