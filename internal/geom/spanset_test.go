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

func TestSpanSetBasic(t *testing.T) {
	var s SpanSet
	if s.Stab(0) {
		t.Fatal("empty set must not stab")
	}
	s.Insert(10, 20)
	for pos, want := range map[int64]bool{9: false, 10: false, 11: true, 20: true, 21: false} {
		if got := s.Stab(pos); got != want {
			t.Errorf("Stab(%d) = %v, want %v", pos, got, want)
		}
	}
	s.Remove(10, 20)
	if s.Stab(15) {
		t.Fatal("removed span still stabs")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after remove", s.Len())
	}
}

func TestSpanSetDuplicates(t *testing.T) {
	var s SpanSet
	s.Insert(0, 100)
	s.Insert(0, 100)
	s.Remove(0, 100)
	if !s.Stab(50) {
		t.Fatal("one of two identical spans must survive a single remove")
	}
	s.Remove(0, 100)
	if s.Stab(50) {
		t.Fatal("both spans removed")
	}
}

// TestSpanSetBoundedMemory: a query-free edit stream (insert+remove cycles,
// the shape of an aapsmd session that edits but never corrects) must leave
// exactly the live population behind.
func TestSpanSetBoundedMemory(t *testing.T) {
	var s SpanSet
	for i := int64(0); i < 200; i++ {
		s.Insert(i, i+100) // a modest live population
	}
	for cycle := int64(0); cycle < 20000; cycle++ {
		s.Insert(cycle, cycle+50)
		s.Remove(cycle, cycle+50)
	}
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	if !s.Stab(50) || s.Stab(-10) {
		t.Fatal("semantics broken after insert/remove cycles")
	}
}

// TestSpanSetRandomized mirrors the incremental engine's usage: interleaved
// insert/remove/stab against a brute-force oracle, and against a twin
// bulk-loaded by NewSpanSet from the live spans at every step.
func TestSpanSetRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s SpanSet
	var live [][2]int64
	for step := 0; step < 5000; step++ {
		switch {
		case len(live) == 0 || rng.Intn(3) != 0:
			lo := rng.Int63n(2000) - 1000
			hi := lo + rng.Int63n(300)
			s.Insert(lo, hi)
			live = append(live, [2]int64{lo, hi})
		default:
			i := rng.Intn(len(live))
			s.Remove(live[i][0], live[i][1])
			live = append(live[:i], live[i+1:]...)
		}
		lo, hi := make([]int64, len(live)), make([]int64, len(live))
		for i, sp := range live {
			lo[i], hi[i] = sp[0], sp[1]
		}
		twin := NewSpanSet(lo, hi)
		if twin.Len() != s.Len() {
			t.Fatalf("step %d: NewSpanSet Len = %d, incremental Len = %d", step, twin.Len(), s.Len())
		}
		pos := rng.Int63n(2400) - 1200
		want := referenceStab(live, pos)
		if got := s.Stab(pos); got != want {
			t.Fatalf("step %d: Stab(%d) = %v, want %v (%d live)", step, pos, got, want, len(live))
		}
		if got := twin.Stab(pos); got != want {
			t.Fatalf("step %d: NewSpanSet Stab(%d) = %v, want %v (%d live)", step, pos, got, want, len(live))
		}
	}
	if s.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(live))
	}
}
