package aapsm

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/drc"
)

func TestPublicQuickstartFlow(t *testing.T) {
	rules := Default90nmRules()
	l := NewLayout("demo")
	l.Add(R(0, 0, 100, 1000))
	l.Add(R(350, 0, 450, 1000))
	ok, err := Assignable(l, rules)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("dense pair must conflict")
	}
	ctx := context.Background()
	eng := NewEngine(WithRules(rules))
	s := eng.NewSession(l)
	res, err := s.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignable() || len(res.Conflicts()) == 0 {
		t.Fatal("expected conflicts")
	}
	a, err := s.Assignment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := VerifyAssignment(a, res); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	cor, err := s.Correction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cor.Plan.Unfixable) != 0 {
		t.Fatalf("unfixable: %v", cor.Plan.Unfixable)
	}
	ok, err = Assignable(cor.Layout, rules)
	if err != nil || !ok {
		t.Fatalf("corrected layout assignable=%v err=%v", ok, err)
	}
	if vs := eng.NewSession(cor.Layout).DRC(); len(vs) != 0 {
		t.Fatalf("DRC: %v", vs)
	}
	if cor.Stats.AreaIncrease <= 0 {
		t.Error("area must grow")
	}
}

func TestDetectOptionsVariantsAgree(t *testing.T) {
	l := GenerateBenchmark("v", DefaultBenchmarkParams(3, 2, 90))
	var weights []int64
	for _, m := range []TJoinMethod{GeneralizedGadgets, OptimizedGadgets, LawlerReduction} {
		res, err := NewEngine(WithTJoinMethod(m)).Detect(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		var w int64
		for _, c := range res.Conflicts() {
			w += res.Graph.Drawing.G.Edge(c.Edge).Weight
		}
		weights = append(weights, w)
	}
	if weights[0] != weights[1] || weights[0] != weights[2] {
		t.Fatalf("weights differ across reductions: %v", weights)
	}
}

func TestImprovedRecheckNeverWorse(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 6; seed++ {
		l := GenerateBenchmark("r", DefaultBenchmarkParams(seed, 2, 80))
		base, err := NewEngine().Detect(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		imp, err := NewEngine(WithImprovedRecheck(true)).Detect(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		if len(imp.Conflicts()) > len(base.Conflicts()) {
			t.Fatalf("seed %d: improved recheck selected more conflicts (%d > %d)",
				seed, len(imp.Conflicts()), len(base.Conflicts()))
		}
	}
}

func TestGreedyBaselineNeverBetterOnWeight(t *testing.T) {
	rules := Default90nmRules()
	for seed := int64(0); seed < 5; seed++ {
		l := GenerateBenchmark("g", DefaultBenchmarkParams(seed+50, 2, 70))
		opt, err := NewEngine(WithRules(rules)).Detect(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := DetectGreedy(l, rules, PCG)
		if err != nil {
			t.Fatal(err)
		}
		w := func(r *Result) int64 {
			var s int64
			for _, c := range r.Conflicts() {
				s += r.Graph.Drawing.G.Edge(c.Edge).Weight
			}
			return s
		}
		// On crossing-free graphs the flow is weight-optimal, so greedy can
		// never beat it; with crossings the flow's optimality is only
		// approximate, but greedy beating it by weight would flag a bug in
		// the T-join pipeline (greedy has no crossing handicap).
		if opt.Detection.Stats.CrossingPairs == 0 && w(gb) < w(opt) {
			t.Fatalf("seed %d: greedy weight %d beat optimal %d", seed, w(gb), w(opt))
		}
	}
}

func TestFigureFixturesPublic(t *testing.T) {
	rules := Default90nmRules()
	if ok, _ := Assignable(Figure1Layout(), rules); ok {
		t.Error("figure 1 assignable")
	}
	if ok, _ := Assignable(Figure5Layout(), rules); ok {
		t.Error("figure 5 assignable")
	}
	cor, err := NewEngine(WithRules(rules)).NewSession(Figure5Layout()).Correction(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cor.Plan.MaxPerLine() < 2 {
		t.Error("figure 5 needs shared cut lines")
	}
}

func TestGDSPublicRoundTrip(t *testing.T) {
	l := GenerateBenchmark("rt", DefaultBenchmarkParams(9, 2, 40))
	var buf bytes.Buffer
	if err := WriteGDS(&buf, l); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGDS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Features) != len(l.Features) {
		t.Fatal("gds round trip feature count")
	}
	var tb bytes.Buffer
	if err := WriteLayoutText(&tb, l); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadLayoutText(&tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(back2.Features) != len(l.Features) {
		t.Fatal("text round trip feature count")
	}
}

// TestCorrectionIdempotent re-detects after correction: a second pass must
// find nothing new to fix.
func TestCorrectionIdempotent(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	l := GenerateBenchmark("idem", DefaultBenchmarkParams(13, 3, 100))
	cor, err := eng.NewSession(l).Correction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cor.Plan.Unfixable) != 0 {
		t.Skipf("layout has %d unfixable conflicts", len(cor.Plan.Unfixable))
	}
	s2 := eng.NewSession(cor.Layout)
	res2, err := s2.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Conflicts()) != 0 {
		t.Fatalf("second pass found %d conflicts", len(res2.Conflicts()))
	}
	cor2, err := s2.Correction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cor2.Plan.Cuts) != 0 || cor2.Layout.Area() != cor.Layout.Area() {
		t.Error("second correction must be a no-op")
	}
}

// TestCorrectionMonotonicProperty: correction never shrinks any pairwise
// feature separation.
func TestCorrectionMonotonicProperty(t *testing.T) {
	eng := NewEngine()
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		l := GenerateBenchmark("mono", DefaultBenchmarkParams(rng.Int63n(1000), 1, 60))
		cor, err := eng.NewSession(l).Correction(context.Background())
		if err != nil {
			return false
		}
		for i := 0; i < len(l.Features); i++ {
			a0, a1 := l.Features[i].Rect, cor.Layout.Features[i].Rect
			if a1.Width() < a0.Width() || a1.Height() < a0.Height() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestDRCWithRulesIncrementalRejects: rules whose DRC minima are valid but
// which the incremental engine rejects (here FeatureConflictWeight does not
// dominate MinShifterSpacing) must still get real DRC violations, while
// detection reports the rule error.
func TestDRCWithRulesIncrementalRejects(t *testing.T) {
	rules := Default90nmRules()
	rules.FeatureConflictWeight = rules.MinShifterSpacing
	if rules.Validate() == nil {
		t.Fatal("rules unexpectedly validate")
	}
	l := NewLayout("tight")
	l.Add(R(0, 0, 100, 1000))
	l.Add(R(100+rules.MinFeatureSpacing/2, 0, 200+rules.MinFeatureSpacing/2, 1000))
	want := drc.Check(l, rules)
	if len(want) == 0 {
		t.Fatal("fixture has no spacing violation")
	}
	s := NewEngine(WithRules(rules)).NewSession(l)
	if got := s.DRC(); !slices.Equal(got, want) {
		t.Fatalf("DRC = %v, want %v", got, want)
	}
	if _, err := s.Detect(context.Background()); err == nil {
		t.Fatal("Detect accepted rules the incremental engine rejects")
	}
}
