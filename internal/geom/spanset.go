package geom

import (
	"slices"
)

// SpanSet is a static multiset of 1-D spans answering stabbing queries of
// the form "does any span (lo, hi] contain pos". It keeps the span low ends
// and high ends in two sorted slices: NewSpanSet builds it with one sort
// each, and a query is two binary searches.
//
// The layout-correction step builds one SpanSet per cut direction for every
// plan, to decide whether an end-to-end cut position would stretch a
// feature's width.
//
// The zero SpanSet is empty.
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

// Stab reports whether any span (lo, hi] contains pos, i.e. lo < pos <= hi.
func (s *SpanSet) Stab(pos int64) bool {
	// Spans with lo < pos, minus those already closed (hi < pos), are exactly
	// the spans whose half-open interval (lo, hi] contains pos.
	opened, _ := slices.BinarySearch(s.starts, pos)
	closed, _ := slices.BinarySearch(s.ends, pos)
	return opened > closed
}
