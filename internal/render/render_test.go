package render

import (
	"context"

	"bytes"
	"encoding/xml"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/geom"
	"repro/internal/layout"
)

// parseSVG checks the output is well-formed XML and counts element names.
func parseSVG(t *testing.T, data []byte) map[string]int {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(data))
	counts := map[string]int{}
	for {
		tok, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("svg not well-formed: %v", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			counts[se.Name.Local]++
		}
	}
	return counts
}

func TestSVGPlainLayout(t *testing.T) {
	l := bench.Figure1Layout()
	var buf bytes.Buffer
	if err := SVG(&buf, l, Options{}); err != nil {
		t.Fatal(err)
	}
	counts := parseSVG(t, buf.Bytes())
	if counts["svg"] != 1 {
		t.Fatal("missing svg root")
	}
	// 3 features + 1 background.
	if counts["rect"] != len(l.Features)+1 {
		t.Errorf("rects = %d, want %d", counts["rect"], len(l.Features)+1)
	}
}

func TestSVGFullOverlay(t *testing.T) {
	r := layout.Default90nm()
	l := bench.Figure5Layout()
	cg, err := core.BuildGraph(l, r, core.PCG)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.DetectContext(context.Background(), cg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.AssignPhases(det)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := correct.BuildPlan(l, r, cg.Set, det.FinalConflicts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = SVG(&buf, l, Options{
		Set: cg.Set, Phases: a.Phases, Graph: cg,
		Conflicts: det.FinalConflicts, Plan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := parseSVG(t, buf.Bytes())
	wantRects := 1 + len(l.Features) + len(cg.Set.Shifters)
	if counts["rect"] != wantRects {
		t.Errorf("rects = %d, want %d", counts["rect"], wantRects)
	}
	if counts["circle"] != cg.Nodes() {
		t.Errorf("graph nodes drawn = %d, want %d", counts["circle"], cg.Nodes())
	}
	if counts["line"] == 0 {
		t.Error("no edges or cuts drawn")
	}
	out := buf.String()
	if !strings.Contains(out, "red") {
		t.Error("conflicts should be highlighted")
	}
	if !strings.Contains(out, "#ffd9b3") || !strings.Contains(out, "#cfe8ff") {
		t.Error("both phases should appear")
	}
	if !strings.Contains(out, "stroke-dasharray=\"6,3\"") {
		t.Error("cut lines should be drawn")
	}
}

// TestSVGDegenerateLayouts: empty and zero-area layouts must still produce a
// valid SVG — a well-formed document with strictly positive width, height and
// viewBox, no NaN anywhere.
func TestSVGDegenerateLayouts(t *testing.T) {
	zeroWidth := layout.New("zero-width")
	zeroWidth.Add(geom.R(5, 0, 5, 10))
	zeroArea := layout.New("zero-area")
	zeroArea.Features = append(zeroArea.Features, layout.Feature{}) // zero Rect
	cases := []struct {
		name  string
		l     *layout.Layout
		opt   Options
		rects int // feature rects expected besides the background
	}{
		{"empty layout", layout.New("empty"), Options{}, 0},
		{"empty layout fixed scale", layout.New("empty"), Options{Scale: 50}, 0},
		{"single zero-width feature", zeroWidth, Options{}, 1},
		{"single zero-rect feature", zeroArea, Options{}, 1},
		{"huge scale rounds to zero", bench.Figure1Layout(), Options{Scale: 1e9}, 3},
		{"NaN scale", bench.Figure1Layout(), Options{Scale: math.NaN()}, 3},
		{"negative infinite scale", bench.Figure1Layout(), Options{Scale: math.Inf(-1)}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := SVG(&buf, tc.l, tc.opt); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if strings.Contains(out, "NaN") {
				t.Fatalf("output contains NaN:\n%s", out)
			}
			counts := parseSVG(t, buf.Bytes())
			if counts["svg"] != 1 {
				t.Fatal("missing svg root")
			}
			if counts["rect"] != tc.rects+1 {
				t.Errorf("rects = %d, want %d", counts["rect"], tc.rects+1)
			}
			var hdr struct {
				Width   float64 `xml:"width,attr"`
				Height  float64 `xml:"height,attr"`
				ViewBox string  `xml:"viewBox,attr"`
			}
			if err := xml.Unmarshal(buf.Bytes(), &hdr); err != nil {
				t.Fatal(err)
			}
			if hdr.Width < 1 || hdr.Height < 1 {
				t.Errorf("canvas %gx%g, want >= 1x1", hdr.Width, hdr.Height)
			}
			var vx, vy, vw, vh float64
			if _, err := fmt.Sscanf(hdr.ViewBox, "%f %f %f %f", &vx, &vy, &vw, &vh); err != nil {
				t.Fatalf("viewBox %q: %v", hdr.ViewBox, err)
			}
			if vw < 1 || vh < 1 {
				t.Errorf("viewBox %q, want >= 1x1 extent", hdr.ViewBox)
			}
		})
	}
}

func TestSVGScaleOption(t *testing.T) {
	l := bench.Figure1Layout()
	var a, b bytes.Buffer
	if err := SVG(&a, l, Options{Scale: 10}); err != nil {
		t.Fatal(err)
	}
	if err := SVG(&b, l, Options{Scale: 20}); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || b.Len() == 0 || a.String() == b.String() {
		t.Error("scale must affect output")
	}
}
