// Package mask synthesizes the manufacturing view of a phase-assigned
// layout: the feature layer plus the 0° and 180° shifter aperture layers,
// emitted as one GDSII-compatible layout. This is the artifact an AAPSM flow
// hands to mask data preparation once conflicts are detected and corrected.
//
// The view is tone-aware. On a bright-field mask the drawn features are
// chrome on a clear background (LayerChrome); on a dark-field mask they are
// clear openings etched into chrome (LayerOpening). The phase-consistency
// conditions are tone-independent, so Validate applies unchanged.
package mask

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/shifter"
)

// Conventional layer numbers for the emitted mask view.
const (
	// LayerChrome carries the drawn features of a bright-field mask.
	LayerChrome = 0
	// LayerOpening carries the drawn features of a dark-field mask: clear
	// openings in the chrome background.
	LayerOpening = 1
	// LayerShifter0 carries 0° shifter apertures.
	LayerShifter0 = 10
	// LayerShifter180 carries 180° shifter apertures.
	LayerShifter180 = 11
)

// ErrPhaseCount is returned when the assignment does not cover the shifter
// set.
var ErrPhaseCount = errors.New("mask: phase assignment does not match shifter set")

// Build combines a layout, its shifter set and a phase assignment into a
// single multi-layer layout. Features keep their original layers when
// non-zero; layer-0 features land on the tone's feature layer — LayerChrome
// (also 0) on a bright-field mask, LayerOpening on a dark-field mask.
func Build(l *layout.Layout, set *shifter.Set, phases []core.Phase, tone layout.Tone) (*layout.Layout, error) {
	if len(phases) != len(set.Shifters) {
		return nil, fmt.Errorf("%w: %d phases for %d shifters", ErrPhaseCount, len(phases), len(set.Shifters))
	}
	featureLayer := LayerChrome
	if tone == layout.DarkField {
		featureLayer = LayerOpening
	}
	out := layout.New(l.Name + ".mask")
	if n := len(l.Features) + len(set.Shifters); n > 0 {
		out.Features = make([]layout.Feature, 0, n)
	}
	for _, f := range l.Features {
		ly := f.Layer
		if ly == 0 {
			ly = featureLayer
		}
		out.AddOnLayer(f.Rect, ly)
	}
	for i, s := range set.Shifters {
		layerNum := LayerShifter0
		if phases[i] == core.Phase180 {
			layerNum = LayerShifter180
		}
		out.AddOnLayer(s.Rect, layerNum)
	}
	return out, nil
}

// Stats summarizes a mask view.
type Stats struct {
	Chrome, Phase0, Phase180 int
}

// Count tallies shapes per mask layer.
func Count(l *layout.Layout) Stats {
	var s Stats
	for _, f := range l.Features {
		switch f.Layer {
		case LayerShifter0:
			s.Phase0++
		case LayerShifter180:
			s.Phase180++
		default:
			s.Chrome++
		}
	}
	return s
}

// Validate checks the mask view's physical consistency: every critical
// chrome feature is flanked by exactly two apertures of opposite phase, and
// no two opposite-phase apertures violate the shifter spacing rule unless
// the pair was waived by detection.
func Validate(l *layout.Layout, set *shifter.Set, phases []core.Phase, waived map[int]bool, r layout.Rules) []string {
	var problems []string
	// Shifters 2k and 2k+1 flank one critical feature, in ascending feature
	// order (see shifter.Set), so problems come back in feature order.
	for k := 0; k+1 < len(set.Shifters); k += 2 {
		if phases[k] == phases[k+1] {
			problems = append(problems,
				fmt.Sprintf("feature %d flanked by same-phase apertures", set.Shifters[k].Feature))
		}
	}
	for oi, ov := range set.Overlaps {
		if waived[oi] {
			continue
		}
		if phases[ov.A] != phases[ov.B] {
			problems = append(problems,
				fmt.Sprintf("overlapping apertures %d,%d carry opposite phases", ov.A, ov.B))
		}
	}
	return problems
}
