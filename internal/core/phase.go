package core

import (
	"fmt"

	"repro/internal/geom"
)

// Phase is a shifter phase in degrees: 0 or 180.
type Phase int8

const (
	// Phase0 is the unshifted aperture.
	Phase0 Phase = 0
	// Phase180 is the π-shifted aperture.
	Phase180 Phase = 1
)

func (p Phase) String() string {
	if p == Phase180 {
		return "180"
	}
	return "0"
}

// Assignment maps every shifter to a phase.
type Assignment struct {
	Phases []Phase // indexed by shifter
	// Waived marks overlap indices whose Condition-2 constraint was
	// cancelled by a detected conflict (they must be fixed by layout
	// modification or mask splitting before manufacture).
	Waived map[int]bool
	// WaivedFeatures marks features whose Condition-1 constraint was
	// cancelled (FeatureEdge conflicts).
	WaivedFeatures map[int]bool
}

// AssignPhases two-colors the conflict graph after removing the detected
// conflicts and extracts shifter phases. It fails if the detection result is
// inconsistent (remaining graph not bipartite).
func AssignPhases(det *Detection) (*Assignment, error) {
	colors, ok := det.Graph.Drawing.G.VerifyBipartition(det.ConflictEdgeSet())
	if !ok {
		return nil, fmt.Errorf("core: conflict set does not make the graph bipartite")
	}
	cg := det.Graph
	a := &Assignment{
		Phases:         make([]Phase, len(cg.Set.Shifters)),
		Waived:         make(map[int]bool),
		WaivedFeatures: make(map[int]bool),
	}
	// Shifter i is graph node i.
	for si := range a.Phases {
		if colors[si] == 1 {
			a.Phases[si] = Phase180
		}
	}
	for _, c := range det.FinalConflicts {
		switch c.Meta.Kind {
		case OverlapEdge:
			a.Waived[c.Meta.Overlap] = true
		case FeatureEdge:
			a.WaivedFeatures[c.Meta.Feature] = true
		}
	}
	return a, nil
}

// Violation describes a broken phase-assignment condition.
type Violation struct {
	// Condition is 1 (feature flanks share a phase) or 2 (overlapping
	// shifters differ).
	Condition int
	S1, S2    int
	Where     geom.Point
}

func (v Violation) String() string {
	return fmt.Sprintf("condition %d violated by shifters %d,%d near %v", v.Condition, v.S1, v.S2, v.Where)
}

// Verify checks an assignment against the layout's constraints, skipping
// waived ones. A fully empty result on an un-waived assignment certifies the
// layout phase-assignable (the constructive direction of Theorem 1).
// Violations come back in ascending feature order, then overlap order.
func (a *Assignment) Verify(cg *ConflictGraph) []Violation {
	var out []Violation
	// Shifters 2k and 2k+1 flank one critical feature, in ascending feature
	// order (see shifter.Set).
	sh := cg.Set.Shifters
	for k := 0; k+1 < len(sh); k += 2 {
		if a.WaivedFeatures[sh[k].Feature] {
			continue
		}
		if a.Phases[k] == a.Phases[k+1] {
			out = append(out, Violation{
				Condition: 1, S1: k, S2: k + 1,
				Where: sh[k].Center(),
			})
		}
	}
	for oi, ov := range cg.Set.Overlaps {
		if a.Waived[oi] {
			continue
		}
		if a.Phases[ov.A] != a.Phases[ov.B] {
			out = append(out, Violation{
				Condition: 2, S1: ov.A, S2: ov.B,
				Where: sh[ov.A].Center(),
			})
		}
	}
	return out
}
