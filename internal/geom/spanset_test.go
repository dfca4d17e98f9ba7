package geom

import (
	"math/rand"
	"testing"
)

// referenceStab is the brute-force oracle: any span with lo < pos <= hi.
func referenceStab(spans [][2]int64, pos int64) bool {
	for _, s := range spans {
		if s[0] < pos && pos <= s[1] {
			return true
		}
	}
	return false
}

// newSpanSetOf bulk-loads spans through NewSpanSet from fresh slices.
func newSpanSetOf(spans [][2]int64) SpanSet {
	lo, hi := make([]int64, len(spans)), make([]int64, len(spans))
	for i, sp := range spans {
		lo[i], hi[i] = sp[0], sp[1]
	}
	return NewSpanSet(lo, hi)
}

func TestSpanSetBasic(t *testing.T) {
	var empty SpanSet
	if empty.Stab(0) {
		t.Fatal("empty set must not stab")
	}
	s := newSpanSetOf([][2]int64{{10, 20}})
	for pos, want := range map[int64]bool{9: false, 10: false, 11: true, 20: true, 21: false} {
		if got := s.Stab(pos); got != want {
			t.Errorf("Stab(%d) = %v, want %v", pos, got, want)
		}
	}
}

// TestSpanSetDuplicates: identical spans count as one cover, and spans that
// touch end to start leave no gap at the shared coordinate.
func TestSpanSetDuplicates(t *testing.T) {
	s := newSpanSetOf([][2]int64{{0, 100}, {0, 100}, {100, 200}, {200, 200}})
	for pos, want := range map[int64]bool{0: false, 1: true, 100: true, 101: true, 200: true, 201: false} {
		if got := s.Stab(pos); got != want {
			t.Errorf("Stab(%d) = %v, want %v", pos, got, want)
		}
	}
}

// TestSpanSetRandomized checks NewSpanSet against the brute-force oracle on
// random span sets drawn from a narrow coordinate range, so duplicate,
// nested, touching and empty (lo == hi) spans all occur, at every position
// from just below the range to just past the highest span.
func TestSpanSetRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		spans := make([][2]int64, rng.Intn(40))
		for i := range spans {
			switch {
			case i > 0 && rng.Intn(4) == 0: // a duplicate of an earlier span
				spans[i] = spans[rng.Intn(i)]
			case i > 0 && rng.Intn(4) == 0: // starts where an earlier span ends
				lo := spans[rng.Intn(i)][1]
				spans[i] = [2]int64{lo, lo + rng.Int63n(20)}
			default:
				lo := rng.Int63n(100) - 50
				spans[i] = [2]int64{lo, lo + rng.Int63n(30)}
			}
		}
		s := newSpanSetOf(spans)
		hi := int64(-51)
		for _, sp := range spans {
			hi = max(hi, sp[1]+1)
		}
		for pos := int64(-51); pos <= hi; pos++ {
			if got, want := s.Stab(pos), referenceStab(spans, pos); got != want {
				t.Fatalf("trial %d: Stab(%d) = %v, want %v over %v", trial, pos, got, want, spans)
			}
		}
	}
}
