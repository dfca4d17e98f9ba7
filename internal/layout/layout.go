// Package layout models the polysilicon-layer layouts the AAPSM flow
// operates on: axis-aligned rectangular features plus the process rules
// (critical width threshold, shifter dimensions and spacing, DRC minima)
// that drive shifter synthesis and conflict detection.
//
// Coordinates are int64 nanometers throughout.
package layout

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/geom"
)

// Feature is a drawn rectangle on the critical (poly) layer.
type Feature struct {
	Rect  geom.Rect
	Layer int // GDSII layer number; 0 is the default poly layer
	// Group links sub-rectangles decomposed from one rectilinear polygon:
	// 0 marks a standalone rectangle, any other value is shared by every
	// sub-rectangle of the same source polygon, so edits and DRC reports can
	// be attributed back to the drawn shape.
	Group int
}

// Orientation of a feature, derived from its aspect ratio.
type Orientation int

const (
	// Horizontal features run left-right (width >= height): shifters go
	// above and below.
	Horizontal Orientation = iota
	// Vertical features run bottom-top (height > width): shifters go left
	// and right.
	Vertical
)

// Orient classifies a feature: ties count as Horizontal.
func (f Feature) Orient() Orientation {
	if f.Rect.Height() > f.Rect.Width() {
		return Vertical
	}
	return Horizontal
}

// Layout is a named collection of features.
type Layout struct {
	Name     string
	Features []Feature
	// Hier, when non-nil, records the cell hierarchy this flat layout was
	// expanded from: provenance for readers and snapshots. Detection does not
	// read it; identical conflict clusters share a solve by content whether
	// or not it is present. The plain-text interchange format does not carry
	// it.
	Hier *Hierarchy
}

// Hierarchy is the sidecar record of the cell structure a flattened layout
// came from: which cells exist, which cell each placement instantiates, and
// which placement each flattened feature belongs to.
type Hierarchy struct {
	// Cells are the library cell names, indexed by PlacementCell values.
	Cells []string
	// PlacementCell[p] is the cell index instantiated by placement p.
	PlacementCell []int32
	// FeatureInstance parallels Layout.Features: the placement index each
	// feature was expanded from, or -1 for features drawn at top level (or
	// features edited after flattening, whose provenance is lost).
	FeatureInstance []int32
}

// Clone returns a deep copy.
func (h *Hierarchy) Clone() *Hierarchy {
	if h == nil {
		return nil
	}
	return &Hierarchy{
		Cells:           append([]string(nil), h.Cells...),
		PlacementCell:   append([]int32(nil), h.PlacementCell...),
		FeatureInstance: append([]int32(nil), h.FeatureInstance...),
	}
}

// Validate checks internal consistency against a feature count.
func (h *Hierarchy) Validate(nFeatures int) error {
	if h == nil {
		return nil
	}
	if len(h.FeatureInstance) != nFeatures {
		return fmt.Errorf("layout: hierarchy covers %d features, layout has %d", len(h.FeatureInstance), nFeatures)
	}
	for p, c := range h.PlacementCell {
		if c < 0 || int(c) >= len(h.Cells) {
			return fmt.Errorf("layout: placement %d references cell %d of %d", p, c, len(h.Cells))
		}
	}
	for fi, p := range h.FeatureInstance {
		if p < -1 || int(p) >= len(h.PlacementCell) {
			return fmt.Errorf("layout: feature %d references placement %d of %d", fi, p, len(h.PlacementCell))
		}
	}
	return nil
}

// New creates an empty layout.
func New(name string) *Layout { return &Layout{Name: name} }

// Add appends a feature rectangle on layer 0 and returns its index.
func (l *Layout) Add(r geom.Rect) int {
	l.Features = append(l.Features, Feature{Rect: r})
	return len(l.Features) - 1
}

// AddOnLayer appends a feature on an explicit layer.
func (l *Layout) AddOnLayer(r geom.Rect, layer int) int {
	l.Features = append(l.Features, Feature{Rect: r, Layer: layer})
	return len(l.Features) - 1
}

// BBox returns the bounding box of all features (zero Rect when empty).
func (l *Layout) BBox() geom.Rect {
	var bb geom.Rect
	for _, f := range l.Features {
		bb = bb.Union(f.Rect)
	}
	return bb
}

// Area returns the bounding-box area in nm² — the quantity Table 2's
// "% area increase" is measured against.
func (l *Layout) Area() int64 { return l.BBox().Area() }

// Clone returns a deep copy.
func (l *Layout) Clone() *Layout {
	out := &Layout{
		Name:     l.Name,
		Features: append([]Feature(nil), l.Features...),
		Hier:     l.Hier.Clone(),
	}
	return out
}

// Tone selects the AAPSM process polarity a rule set targets.
type Tone int64

const (
	// BrightField is the paper's process: features are drawn chrome on a
	// clear field, flanked by phase apertures. The zero value, so legacy
	// rule structs keep their meaning.
	BrightField Tone = iota
	// DarkField inverts the polarity: features are clear openings in a
	// chrome field. Apertures must keep a positive chrome gap to the
	// openings they flank (ShifterGap > 0), and the mask view emits the
	// features on the opening layer instead of the chrome layer.
	DarkField
)

// String implements fmt.Stringer.
func (t Tone) String() string {
	switch t {
	case BrightField:
		return "bright"
	case DarkField:
		return "dark"
	default:
		return fmt.Sprintf("tone(%d)", int64(t))
	}
}

// Rules holds the process parameters of the flow. All lengths in nm.
type Rules struct {
	// CriticalWidth: features whose drawn width (smaller rectangle
	// dimension) is strictly below this threshold are critical and must be
	// phase-shifted.
	CriticalWidth int64
	// ShifterWidth is the width of each flanking phase shifter.
	ShifterWidth int64
	// ShifterGap is the clearance between a critical feature's edge and its
	// shifter (0: shifters abut the feature).
	ShifterGap int64
	// MinShifterSpacing: shifters closer than this must carry the same
	// phase (the paper's "overlapping shifters", Condition 2).
	MinShifterSpacing int64
	// MinFeatureWidth and MinFeatureSpacing are the DRC minima used to
	// validate layouts before and after modification.
	MinFeatureWidth   int64
	MinFeatureSpacing int64
	// FeatureConflictWeight is the bipartization cost of deleting a
	// Condition-1 edge (giving up phase shifting of a feature, which the
	// flow must avoid); it dominates any spacing cost.
	FeatureConflictWeight int64
	// Tone selects bright-field (zero value) or dark-field polarity.
	Tone Tone
}

// Default90nm returns representative 90 nm-node rules (the paper's
// experiments are "90 nm designs with typical values of threshold width,
// shifter dimensions and shifter spacing").
func Default90nm() Rules {
	return Rules{
		CriticalWidth:         150,
		ShifterWidth:          200,
		ShifterGap:            0,
		MinShifterSpacing:     300,
		MinFeatureWidth:       100,
		MinFeatureSpacing:     140,
		FeatureConflictWeight: 1 << 20,
	}
}

// Dark90nm returns the dark-field counterpart of Default90nm: clear
// openings in a chrome field. The aperture geometry differs where the
// inverted polarity demands it — apertures are wider to compensate for the
// chrome rim, and a positive gap keeps chrome between aperture and opening.
func Dark90nm() Rules {
	return Rules{
		CriticalWidth:         150,
		ShifterWidth:          220,
		ShifterGap:            20,
		MinShifterSpacing:     300,
		MinFeatureWidth:       100,
		MinFeatureSpacing:     140,
		FeatureConflictWeight: 1 << 20,
		Tone:                  DarkField,
	}
}

// Validate sanity-checks the rule values.
func (r Rules) Validate() error {
	if r.CriticalWidth <= 0 || r.ShifterWidth <= 0 || r.MinShifterSpacing <= 0 {
		return fmt.Errorf("layout: non-positive rule values: %+v", r)
	}
	if r.ShifterGap < 0 {
		return fmt.Errorf("layout: negative shifter gap")
	}
	if r.Tone != BrightField && r.Tone != DarkField {
		return fmt.Errorf("layout: unknown tone %d", r.Tone)
	}
	if r.Tone == DarkField && r.ShifterGap <= 0 {
		return fmt.Errorf("layout: dark-field rules need ShifterGap > 0 (chrome between aperture and opening)")
	}
	if r.MinFeatureWidth <= 0 || r.MinFeatureSpacing <= 0 {
		return fmt.Errorf("layout: non-positive DRC minima")
	}
	if r.FeatureConflictWeight <= r.MinShifterSpacing {
		return fmt.Errorf("layout: FeatureConflictWeight must dominate spacing costs")
	}
	return nil
}

// IsCritical reports whether a feature must be phase-shifted under r.
func (r Rules) IsCritical(f Feature) bool {
	return f.Rect.MinDim() < r.CriticalWidth && !f.Rect.Empty()
}

// CriticalIndices returns the indices of critical features.
func (l *Layout) CriticalIndices(r Rules) []int {
	var out []int
	for i, f := range l.Features {
		if r.IsCritical(f) {
			out = append(out, i)
		}
	}
	return out
}

// WriteText serializes the layout to the plain-text interchange format:
// one header line "layout <name>", then one "rect x0 y0 x1 y1 [layer [group]]"
// line per feature. The polygon group field is emitted only when non-zero,
// so rectangle-only layouts keep their historic byte format. Hierarchy is
// never serialized — the text format is flat by design.
func (l *Layout) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "layout %s\n", sanitizeName(l.Name)); err != nil {
		return err
	}
	for _, f := range l.Features {
		var err error
		if f.Group != 0 {
			_, err = fmt.Fprintf(bw, "rect %d %d %d %d %d %d\n",
				f.Rect.X0, f.Rect.Y0, f.Rect.X1, f.Rect.Y1, f.Layer, f.Group)
		} else {
			_, err = fmt.Fprintf(bw, "rect %d %d %d %d %d\n",
				f.Rect.X0, f.Rect.Y0, f.Rect.X1, f.Rect.Y1, f.Layer)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the plain-text format written by WriteText.
func ReadText(r io.Reader) (*Layout, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var l *Layout
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "layout":
			if l != nil {
				return nil, fmt.Errorf("layout: line %d: duplicate header", line)
			}
			name := ""
			if len(fields) > 1 {
				name = fields[1]
			}
			l = New(name)
		case "rect":
			if l == nil {
				return nil, fmt.Errorf("layout: line %d: rect before header", line)
			}
			if len(fields) < 5 || len(fields) > 7 {
				return nil, fmt.Errorf("layout: line %d: want 4 to 6 rect args", line)
			}
			var v [6]int64
			for i := 1; i < len(fields); i++ {
				if _, err := fmt.Sscanf(fields[i], "%d", &v[i-1]); err != nil {
					return nil, fmt.Errorf("layout: line %d: %w", line, err)
				}
			}
			l.Features = append(l.Features, Feature{
				Rect:  geom.R(v[0], v[1], v[2], v[3]),
				Layer: int(v[4]),
				Group: int(v[5]),
			})
		default:
			return nil, fmt.Errorf("layout: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if l == nil {
		return nil, fmt.Errorf("layout: empty input")
	}
	return l, nil
}

func sanitizeName(s string) string {
	if s == "" {
		return "unnamed"
	}
	return strings.ReplaceAll(s, " ", "_")
}
