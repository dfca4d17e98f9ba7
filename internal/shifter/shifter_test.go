package shifter

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/layout"
)

func rules() layout.Rules { return layout.Default90nm() }

func TestFlanksVertical(t *testing.T) {
	l := layout.New("v")
	l.Add(geom.R(0, 0, 100, 1000)) // vertical critical wire
	s, err := Generate(l, rules())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Shifters) != 2 {
		t.Fatalf("shifters = %d", len(s.Shifters))
	}
	lo, hi := s.Shifters[0], s.Shifters[1]
	if lo.Side != LowSide || hi.Side != HighSide {
		t.Error("side labels")
	}
	if lo.Rect != geom.R(-200, 0, 0, 1000) {
		t.Errorf("left shifter = %v", lo.Rect)
	}
	if hi.Rect != geom.R(100, 0, 300, 1000) {
		t.Errorf("right shifter = %v", hi.Rect)
	}
	if len(s.Overlaps) != 0 {
		t.Errorf("overlaps = %v", s.Overlaps)
	}
	if lo.Feature != 0 || hi.Feature != 0 {
		t.Errorf("slots 0 and 1 flank features %d and %d, want 0", lo.Feature, hi.Feature)
	}
}

func TestFlanksHorizontal(t *testing.T) {
	l := layout.New("h")
	l.Add(geom.R(0, 0, 1000, 100))
	r := rules()
	r.ShifterGap = 20
	s, err := Generate(l, r)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.Shifters[0], s.Shifters[1]
	if lo.Rect != geom.R(0, -220, 1000, -20) {
		t.Errorf("below shifter = %v", lo.Rect)
	}
	if hi.Rect != geom.R(0, 120, 1000, 320) {
		t.Errorf("above shifter = %v", hi.Rect)
	}
}

func TestNonCriticalSkipped(t *testing.T) {
	l := layout.New("wide")
	l.Add(geom.R(0, 0, 400, 1000)) // 400nm wide: not critical
	l.Add(geom.R(600, 0, 700, 1000))
	s, err := Generate(l, rules())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Shifters) != 2 {
		t.Fatalf("only the narrow wire gets shifters, got %d", len(s.Shifters))
	}
	if s.Shifters[0].Feature != 1 {
		t.Error("wrong feature index")
	}
	for _, sh := range s.Shifters {
		if sh.Feature == 0 {
			t.Error("non-critical feature must not be flanked")
		}
	}
}

func TestOverlapDetection(t *testing.T) {
	// Two wires at pitch 500: exactly one overlapping pair (facing
	// shifters, separation 0 → deficit = full spacing).
	l := layout.New("pair")
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(500, 0, 600, 1000))
	s, err := Generate(l, rules())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Overlaps) != 1 {
		t.Fatalf("overlaps = %+v", s.Overlaps)
	}
	ov := s.Overlaps[0]
	if ov.A != 1 || ov.B != 2 {
		t.Errorf("pair = (%d,%d), want (1,2)", ov.A, ov.B)
	}
	if ov.Deficit != 300 {
		t.Errorf("deficit = %d, want full 300 (shifters touch)", ov.Deficit)
	}
}

func TestOverlapDeficitPartial(t *testing.T) {
	// Gap between facing shifters = 100 → deficit 200.
	l := layout.New("partial")
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(600, 0, 700, 1000))
	s, _ := Generate(l, rules())
	if len(s.Overlaps) != 1 || s.Overlaps[0].Deficit != 200 {
		t.Fatalf("overlaps = %+v", s.Overlaps)
	}
}

func TestSameFeaturePairExcluded(t *testing.T) {
	// A very narrow feature: its two flanks are 40nm apart — but they are
	// the same feature's pair and must not be an overlap.
	l := layout.New("narrow")
	l.Add(geom.R(0, 0, 40, 1000))
	s, _ := Generate(l, rules())
	if len(s.Overlaps) != 0 {
		t.Fatalf("same-feature flanks must not overlap: %+v", s.Overlaps)
	}
}

func TestDiagonalSeparationUsesMaxGap(t *testing.T) {
	// Shifters diagonal to each other: rectilinear separation is the larger
	// axis gap; here gapX=600 keeps them legal even though gapY is small.
	l := layout.New("diag")
	l.Add(geom.R(0, 0, 100, 1000))
	l.Add(geom.R(900, 1100, 1000, 2100))
	s, _ := Generate(l, rules())
	if len(s.Overlaps) != 0 {
		t.Fatalf("diagonal wires should be clear: %+v", s.Overlaps)
	}
}

func TestCrossOrientationOverlap(t *testing.T) {
	// A vertical and a horizontal wire near each other: the vertical's
	// right shifter and the horizontal's bottom shifter interact.
	l := layout.New("cross")
	l.Add(geom.R(0, 0, 100, 1000))     // vertical
	l.Add(geom.R(350, 400, 1350, 500)) // horizontal, to the right
	s, _ := Generate(l, rules())
	if len(s.Overlaps) == 0 {
		t.Fatal("expected cross-orientation overlaps")
	}
	for _, ov := range s.Overlaps {
		a, b := s.Shifters[ov.A], s.Shifters[ov.B]
		if got := rules().MinShifterSpacing - geom.Separation(a.Rect, b.Rect); got != ov.Deficit {
			t.Errorf("deficit mismatch: %d vs %d", got, ov.Deficit)
		}
	}
}

func TestOverlapsDeterministic(t *testing.T) {
	l := layout.New("det")
	for i := int64(0); i < 8; i++ {
		l.Add(geom.R(i*350, 0, i*350+100, 1000))
	}
	a, _ := Generate(l, rules())
	b, _ := Generate(l, rules())
	if len(a.Overlaps) != len(b.Overlaps) {
		t.Fatal("nondeterministic overlap count")
	}
	for i := range a.Overlaps {
		if a.Overlaps[i] != b.Overlaps[i] {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}

func TestBadRulesRejected(t *testing.T) {
	l := layout.New("bad")
	l.Add(geom.R(0, 0, 100, 1000))
	r := rules()
	r.MinShifterSpacing = 0
	if _, err := Generate(l, r); err == nil {
		t.Fatal("invalid rules must be rejected")
	}
}

// checkPairLayout reports the first break of the shifter-pair layout that
// graph construction and constraint checks walk: Shifters[2k] and
// Shifters[2k+1] are the LowSide and HighSide flanks of one critical
// feature, features ascend with k, and the pairs cover exactly the critical
// features of l.
func checkPairLayout(l *layout.Layout, r layout.Rules, s *Set) error {
	if len(s.Shifters)%2 != 0 {
		return fmt.Errorf("%d shifters, want an even count", len(s.Shifters))
	}
	prev := -1
	for k := 0; k < len(s.Shifters); k += 2 {
		lo, hi := s.Shifters[k], s.Shifters[k+1]
		if lo.Side != LowSide || hi.Side != HighSide {
			return fmt.Errorf("pair %d: sides %d,%d, want low,high", k/2, lo.Side, hi.Side)
		}
		if lo.Feature != hi.Feature {
			return fmt.Errorf("pair %d flanks features %d and %d", k/2, lo.Feature, hi.Feature)
		}
		if lo.Feature <= prev {
			return fmt.Errorf("pair %d: feature %d after feature %d", k/2, lo.Feature, prev)
		}
		prev = lo.Feature
		if !r.IsCritical(l.Features[lo.Feature]) {
			return fmt.Errorf("pair %d flanks non-critical feature %d", k/2, lo.Feature)
		}
	}
	critical := 0
	for _, f := range l.Features {
		if r.IsCritical(f) {
			critical++
		}
	}
	if len(s.Shifters) != 2*critical {
		return fmt.Errorf("%d shifters for %d critical features", len(s.Shifters), critical)
	}
	return nil
}

// TestGeneratePairLayout checks the shifter-pair layout on benchmark designs
// and on seeded random layouts mixing critical and non-critical features of
// both orientations.
func TestGeneratePairLayout(t *testing.T) {
	var layouts []*layout.Layout
	for seed := int64(1); seed <= 3; seed++ {
		layouts = append(layouts, bench.Generate(fmt.Sprintf("b%d", seed), bench.DefaultParams(seed, 2, 20)))
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := layout.New(fmt.Sprintf("rand%d", seed))
		for i := 0; i < 40; i++ {
			x, y := rng.Int63n(8000), rng.Int63n(8000)
			w := 80 + rng.Int63n(200) // critical below 150
			n := 300 + rng.Int63n(1500)
			if rng.Intn(2) == 0 {
				l.Add(geom.R(x, y, x+w, y+n))
			} else {
				l.Add(geom.R(x, y, x+n, y+w))
			}
		}
		layouts = append(layouts, l)
	}
	for _, l := range layouts {
		s, err := Generate(l, rules())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPairLayout(l, rules(), s); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
	}
}
