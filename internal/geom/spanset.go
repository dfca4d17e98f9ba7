package geom

import (
	"slices"
)

// SpanSet is a multiset of 1-D spans supporting stabbing queries of the form
// "does any span (lo, hi] contain pos" under incremental insert and remove.
// It keeps the span low ends and high ends in two sorted slices updated in
// place: a mutation is a binary search plus one shift of the tail, and a
// query is two binary searches. NewSpanSet bulk-loads a set with one sort.
//
// The layout-correction step uses one SpanSet per cut direction to decide
// whether an end-to-end cut position would stretch a feature's width: the
// from-scratch planner builds the sets once per plan, while the incremental
// engine keeps them alive across session edits.
//
// The zero SpanSet is empty and ready to use.
type SpanSet struct {
	starts []int64 // span low ends, sorted
	ends   []int64 // span high ends, sorted
}

// NewSpanSet returns the set of spans [lo[i], hi[i]]. It takes ownership of
// both slices, which must have equal length.
func NewSpanSet(lo, hi []int64) SpanSet {
	slices.Sort(lo)
	slices.Sort(hi)
	return SpanSet{starts: lo, ends: hi}
}

// Insert adds the span [lo, hi].
func (s *SpanSet) Insert(lo, hi int64) {
	s.starts = insertSorted(s.starts, lo)
	s.ends = insertSorted(s.ends, hi)
}

// Remove cancels one previous Insert(lo, hi). Removing a span that was never
// inserted leaves the set in an unspecified (but safe) state; callers are
// expected to pair removes with inserts exactly.
func (s *SpanSet) Remove(lo, hi int64) {
	s.starts = removeSorted(s.starts, lo)
	s.ends = removeSorted(s.ends, hi)
}

// Stab reports whether any span (lo, hi] contains pos, i.e. lo < pos <= hi.
func (s *SpanSet) Stab(pos int64) bool {
	// Spans with lo < pos, minus those already closed (hi < pos), are exactly
	// the spans whose half-open interval (lo, hi] contains pos.
	opened, _ := slices.BinarySearch(s.starts, pos)
	closed, _ := slices.BinarySearch(s.ends, pos)
	return opened > closed
}

// Len returns the number of spans in the set.
func (s *SpanSet) Len() int { return len(s.starts) }

func insertSorted(xs []int64, v int64) []int64 {
	i, _ := slices.BinarySearch(xs, v)
	return slices.Insert(xs, i, v)
}

// removeSorted deletes one copy of v; a value not present is left alone.
func removeSorted(xs []int64, v int64) []int64 {
	if i, ok := slices.BinarySearch(xs, v); ok {
		return slices.Delete(xs, i, i+1)
	}
	return xs
}
