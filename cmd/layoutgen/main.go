// Command layoutgen emits synthetic benchmark layouts: a member of the
// d1..d8 reproduction suite, a custom-sized standard-cell layout, or —
// for the hierarchical/polygonal scenarios — a multi-structure GDS library.
//
// Usage:
//
//	layoutgen -design d3 -out d3.txt
//	layoutgen -rows 10 -gates 200 -seed 7 -out custom.gds
//	layoutgen -fixture figure1 -out fig1.txt
//	layoutgen -rows 2 -gates 10 -hier 4x3 -out hier.gds
//	layoutgen -poly -rows 3 -gates 5 -out poly.gds
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	aapsm "repro"
	"repro/internal/gds"
	"repro/internal/geom"
)

func main() {
	var (
		design  = flag.String("design", "", "suite design name (d1..d8)")
		fixture = flag.String("fixture", "", "figure fixture: figure1 | figure2 | figure5")
		rows    = flag.Int("rows", 4, "rows (custom layout)")
		gates   = flag.Int("gates", 100, "gates per row (custom layout)")
		seed    = flag.Int64("seed", 1, "generator seed (custom layout)")
		hier    = flag.String("hier", "", "emit a hierarchical GDS library: the generated layout becomes a cell placed in a COLSxROWS array (e.g. 4x3; -out must end in .gds)")
		poly    = flag.Bool("poly", false, "emit cross-shaped rectilinear polygons (rows x gates grid) as GDS BOUNDARY records (-out must end in .gds)")
		out     = flag.String("out", "", "output path (.txt or .gds); stdout when empty")
	)
	flag.Parse()

	if *hier != "" || *poly {
		if !strings.HasSuffix(*out, ".gds") {
			fatalf("-hier/-poly write a GDS library; -out must end in .gds")
		}
	}
	if *poly {
		lib := polyLibrary(*rows, *gates)
		if *hier != "" {
			cols, rws := parseGrid(*hier)
			arrayLibrary(lib, cols, rws)
		}
		writeLibrary(lib, *out)
		return
	}

	var l *aapsm.Layout
	switch {
	case *fixture != "":
		switch *fixture {
		case "figure1":
			l = aapsm.Figure1Layout()
		case "figure2":
			l = aapsm.Figure2Layout()
		case "figure5":
			l = aapsm.Figure5Layout()
		default:
			fatalf("unknown fixture %q", *fixture)
		}
	case *design != "":
		for _, d := range aapsm.BenchmarkSuite() {
			if d.Name == *design {
				l = aapsm.GenerateBenchmark(d.Name, d.Params)
				break
			}
		}
		if l == nil {
			fatalf("unknown design %q (want d1..d8)", *design)
		}
	default:
		l = aapsm.GenerateBenchmark(fmt.Sprintf("custom-%dx%d", *rows, *gates),
			aapsm.DefaultBenchmarkParams(*seed, *rows, *gates))
	}

	if *hier != "" {
		cols, rws := parseGrid(*hier)
		lib := cellLibrary(l)
		arrayLibrary(lib, cols, rws)
		writeLibrary(lib, *out)
		return
	}

	fmt.Fprintf(os.Stderr, "generated %s: %d features\n", l.Name, len(l.Features))
	if *out == "" {
		if err := aapsm.WriteLayoutText(os.Stdout, l); err != nil {
			fatalf("%v", err)
		}
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if strings.HasSuffix(*out, ".gds") {
		err = aapsm.WriteGDS(f, l)
	} else {
		err = aapsm.WriteLayoutText(f, l)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "layoutgen: "+format+"\n", args...)
	os.Exit(2)
}

// parseGrid parses a COLSxROWS spec like "4x3".
func parseGrid(s string) (cols, rows int) {
	if n, err := fmt.Sscanf(s, "%dx%d", &cols, &rows); n != 2 || err != nil || cols < 1 || rows < 1 {
		fatalf("bad -hier %q (want COLSxROWS, e.g. 4x3)", s)
	}
	return cols, rows
}

// rectPoly is a rectangle as a 4-point GDS boundary.
func rectPoly(layer int, r aapsm.Rect) gds.Poly {
	return gds.Poly{Layer: layer, Pts: []geom.Point{
		{X: r.X0, Y: r.Y0}, {X: r.X1, Y: r.Y0}, {X: r.X1, Y: r.Y1}, {X: r.X0, Y: r.Y1},
	}}
}

// cellLibrary wraps a flat layout as a single library cell named CELL.
func cellLibrary(l *aapsm.Layout) *gds.Library {
	cell := &gds.Cell{Name: "CELL"}
	for _, f := range l.Features {
		cell.Polys = append(cell.Polys, rectPoly(f.Layer, f.Rect))
	}
	return &gds.Library{Name: l.Name, Cells: []*gds.Cell{cell}}
}

// polyLibrary builds a CELL of rows x gates cross-shaped rectilinear
// polygons at critical width, exercising the reader's polygon decomposition.
func polyLibrary(rows, gates int) *gds.Library {
	const (
		arm   = 100  // arm width (critical: below the 150 nm rule)
		reach = 500  // arm length from the center
		pitch = 1800 // cross-to-cross spacing inside the cell
	)
	cell := &gds.Cell{Name: "CELL"}
	for j := 0; j < rows; j++ {
		for i := 0; i < gates; i++ {
			cx := int64(i) * pitch
			cy := int64(j) * pitch
			// A plus-shaped 12-vertex rectilinear polygon centered on (cx,cy).
			cell.Polys = append(cell.Polys, gds.Poly{Layer: 0, Pts: []geom.Point{
				{X: cx - arm/2, Y: cy - reach}, {X: cx + arm/2, Y: cy - reach},
				{X: cx + arm/2, Y: cy - arm/2}, {X: cx + reach, Y: cy - arm/2},
				{X: cx + reach, Y: cy + arm/2}, {X: cx + arm/2, Y: cy + arm/2},
				{X: cx + arm/2, Y: cy + reach}, {X: cx - arm/2, Y: cy + reach},
				{X: cx - arm/2, Y: cy + arm/2}, {X: cx - reach, Y: cy + arm/2},
				{X: cx - reach, Y: cy - arm/2}, {X: cx - arm/2, Y: cy - arm/2},
			}})
		}
	}
	return &gds.Library{Name: fmt.Sprintf("poly-%dx%d", rows, gates), Cells: []*gds.Cell{cell}}
}

// arrayLibrary adds a TOP cell placing the library's first cell in a
// cols x rows AREF grid. The pitch leaves enough margin past the cell's
// bounding box that shifters of neighboring placements cannot interact, so
// every conflict cluster stays inside one placement and detection can share
// one solved placement's clusters with all the others.
func arrayLibrary(lib *gds.Library, cols, rows int) {
	cell := lib.Cells[0]
	minX, minY := int64(1<<62), int64(1<<62)
	maxX, maxY := int64(-1<<62), int64(-1<<62)
	for _, p := range cell.Polys {
		for _, pt := range p.Pts {
			minX, maxX = min(minX, pt.X), max(maxX, pt.X)
			minY, maxY = min(minY, pt.Y), max(maxY, pt.Y)
		}
	}
	// Shifters reach 240 nm past a feature (gap 20 + width 220) and interact
	// within 300 nm; 1000 nm of clearance keeps placements independent.
	const margin = 1000
	lib.Cells = append([]*gds.Cell{{
		Name: "TOP",
		Refs: []gds.Ref{{
			Cell: cell.Name,
			Cols: cols, Rows: rows,
			ColStep: geom.Pt(maxX-minX+margin, 0),
			RowStep: geom.Pt(0, maxY-minY+margin),
		}},
	}}, lib.Cells...)
}

// writeLibrary serializes a hierarchical library and reports its flattened
// size on stderr.
func writeLibrary(lib *gds.Library, out string) {
	l, err := lib.Flatten(gds.ReadOptions{})
	if err != nil {
		fatalf("generated library does not flatten: %v", err)
	}
	fmt.Fprintf(os.Stderr, "generated %s: %d cells, %d flattened features\n", lib.Name, len(lib.Cells), len(l.Features))
	f, err := os.Create(out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if err := gds.WriteLibrary(f, lib); err != nil {
		fatalf("%v", err)
	}
}
