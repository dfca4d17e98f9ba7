// Package tshape analyzes feature junctions. The paper's flow explicitly
// excludes AAPSM conflicts caused by T-shapes ("these can be corrected by
// feature widening or mask splitting [8]; we are exploring extensions to
// our method to handle them as well", §4); this package implements the
// detection side of that extension: it finds junctions between touching
// features and classifies which detected conflicts involve junction
// features, so the correction stage can route them to widening or mask
// splitting instead of spacing.
package tshape

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/shifter"
)

// Kind classifies how two features touch.
type Kind int8

const (
	// Corner: the features share exactly one point.
	Corner Kind = iota
	// Ell: the shared edge ends at a corner of both features (an L bend).
	Ell
	// Tee: one feature's end abuts the other's side interior (a T join).
	Tee
	// Overlap: the features' interiors intersect.
	Overlap
)

func (k Kind) String() string {
	switch k {
	case Corner:
		return "corner"
	case Ell:
		return "L"
	case Tee:
		return "T"
	default:
		return "overlap"
	}
}

// Junction is a contact between two features.
type Junction struct {
	A, B  int // feature indices, A < B
	Kind  Kind
	Where geom.Rect // the shared region (degenerate for touches)
}

func (j Junction) String() string {
	return fmt.Sprintf("%s-junction features %d/%d at %v", j.Kind, j.A, j.B, j.Where)
}

// Find returns all junctions between features of l, ordered by (A, B).
func Find(l *layout.Layout) []Junction {
	n := len(l.Features)
	if n < 2 {
		return nil
	}
	// Grid prune on touching bounding boxes; pairs come back in (A, B) order.
	boxes := make([]geom.Rect, n)
	for i, f := range l.Features {
		boxes[i] = f.Rect
	}
	kept, _ := geom.Pairs(boxes, 1024, 1, func(i, j int32) bool { return boxes[i].Intersects(boxes[j]) })
	if len(kept) == 0 {
		return nil
	}
	out := make([]Junction, len(kept))
	for k, p := range kept {
		out[k] = classify(int(p[0]), int(p[1]), boxes[p[0]], boxes[p[1]])
	}
	return out
}

func classify(i, j int, a, b geom.Rect) Junction {
	shared := a.Intersect(b)
	jn := Junction{A: i, B: j, Where: shared}
	switch {
	case shared.Width() > 0 && shared.Height() > 0:
		jn.Kind = Overlap
	case shared.Width() == 0 && shared.Height() == 0:
		jn.Kind = Corner
	default:
		// A degenerate shared segment. Tee when the segment lies strictly
		// in the interior of one rectangle's side (an end abutting a side
		// middle); Ell when it terminates at side endpoints of both (a
		// corner bend). Strict interiority cannot hold for both at once.
		if shared.Width() > 0 { // horizontal contact segment
			insideA := shared.X0 > a.X0 && shared.X1 < a.X1
			insideB := shared.X0 > b.X0 && shared.X1 < b.X1
			if insideA || insideB {
				jn.Kind = Tee
			} else {
				jn.Kind = Ell
			}
		} else { // vertical contact segment
			insideA := shared.Y0 > a.Y0 && shared.Y1 < a.Y1
			insideB := shared.Y0 > b.Y0 && shared.Y1 < b.Y1
			if insideA || insideB {
				jn.Kind = Tee
			} else {
				jn.Kind = Ell
			}
		}
	}
	return jn
}

// JunctionFeatures returns the set of feature indices participating in any
// junction.
func JunctionFeatures(junctions []Junction) map[int]bool {
	out := make(map[int]bool, 2*len(junctions))
	for _, j := range junctions {
		out[j.A] = true
		out[j.B] = true
	}
	return out
}

// SplitConflicts partitions detected conflicts into those whose shifters
// belong to junction features (the paper's T-shape class, to be handled by
// widening or mask splitting) and plain spacing conflicts.
func SplitConflicts(conflicts []core.Conflict, set *shifter.Set, junctions []Junction) (plain, junctioned []int) {
	jf := JunctionFeatures(junctions)
	for ci, c := range conflicts {
		fa := set.Shifters[c.Meta.S1].Feature
		fb := set.Shifters[c.Meta.S2].Feature
		if jf[fa] || jf[fb] {
			junctioned = append(junctioned, ci)
		} else {
			plain = append(plain, ci)
		}
	}
	return plain, junctioned
}
