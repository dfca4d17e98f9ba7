package aapsm

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gds"
	"repro/internal/geom"
)

// Fuzz targets for the two layout parsers. The contract under fuzzing is:
//
//  1. no input may panic the parser (the fuzz engine enforces this);
//  2. any successfully parsed layout must survive a write/re-read round
//     trip with identical features, and the writer must be idempotent
//     (write(read(write(l))) produces the same bytes).
//
// The checked-in seed corpus under testdata/fuzz covers the valid formats,
// truncations and malformed records; `go test -fuzz` explores from there.

func textSeedLayouts() []*Layout {
	quick := NewLayout("quick")
	quick.Add(R(0, 0, 100, 1000))
	quick.AddOnLayer(R(350, 0, 450, 1000), 3)
	quick.Add(R(-50, -70, -20, 400)) // negative coords
	quick.Add(R(10, 10, 10, 60))     // degenerate width
	return []*Layout{quick, Figure1Layout(), Figure5Layout()}
}

func FuzzReadLayoutText(f *testing.F) {
	for _, l := range textSeedLayouts() {
		var buf bytes.Buffer
		if err := WriteLayoutText(&buf, l); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("layout\nrect 0 0 1 1 0\n"))
	f.Add([]byte("# comment\nlayout x y z\nrect 1 2 3 4\nrect 4 3 2 1 7\n"))
	f.Add([]byte("rect 0 0 1 1\n"))           // rect before header
	f.Add([]byte("layout a\nlayout b\n"))     // duplicate header
	f.Add([]byte("layout a\nrect 1 2 3\n"))   // short rect
	f.Add([]byte("layout a\nbogus 1\n"))      // unknown directive
	f.Add([]byte("layout a\nrect 1e3 0 1 1")) // non-integer coordinate

	f.Fuzz(func(t *testing.T, data []byte) {
		l1, err := ReadLayoutText(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to not panic
		}
		var w1 bytes.Buffer
		if err := WriteLayoutText(&w1, l1); err != nil {
			t.Fatalf("write of parsed layout failed: %v", err)
		}
		l2, err := ReadLayoutText(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written layout failed: %v\n%s", err, w1.Bytes())
		}
		if len(l1.Features) != len(l2.Features) {
			t.Fatalf("round trip changed feature count %d -> %d", len(l1.Features), len(l2.Features))
		}
		for i := range l1.Features {
			if l1.Features[i] != l2.Features[i] {
				t.Fatalf("feature %d changed in round trip: %+v -> %+v", i, l1.Features[i], l2.Features[i])
			}
		}
		var w2 bytes.Buffer
		if err := WriteLayoutText(&w2, l2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("writer is not idempotent:\n%q\nvs\n%q", w1.Bytes(), w2.Bytes())
		}
	})
}

// FuzzEditPipeline is the differential fuzzer of the incremental pipeline:
// the input bytes decode into a short edit script applied to a session, and
// after every mutation the session's full pipeline — detect, assignment,
// correction, mask, DRC — must be bit-identical to the from-scratch
// reference chain on the same layout. It complements TestIncrementalDifferential
// (seeded scripts) with coverage-guided edit sequences.
func FuzzEditPipeline(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4})                                // one add
	f.Add([]byte{1, 2, 100, 100, 0, 1, 2, 100, 100, 0})         // jittered moves
	f.Add([]byte{2, 0, 0, 0, 0, 0, 9, 50, 50, 9})               // delete then add
	f.Add([]byte{1, 0, 0, 0, 0, 2, 9, 0, 0, 0, 0, 3, 7, 7, 30}) // mixed batch

	f.Fuzz(func(t *testing.T, data []byte) {
		const opBytes = 5
		if len(data) > 8*opBytes {
			data = data[:8*opBytes] // bound the work per exec
		}
		ctx := context.Background()
		s := NewEngine(WithParallelism(1)).NewSession(Figure5Layout())
		if _, err := s.Detect(ctx); err != nil {
			t.Fatal(err)
		}
		for step := 0; step+opBytes <= len(data); step += opBytes {
			op, idx := data[step], int(data[step+1])
			x := int64(int8(data[step+2])) * 40
			y := int64(int8(data[step+3])) * 40
			size := 60 + int64(data[step+4])*10
			n := s.NumFeatures()
			var err error
			switch {
			case op%3 == 0 || n == 0:
				_, err = s.AddFeature(R(x, y, x+100, y+size))
			case op%3 == 1:
				i := idx % n
				r := s.Layout().Features[i].Rect
				err = s.MoveFeature(i, r.Translate(Point{X: x, Y: y}))
			default:
				err = s.DeleteFeature(idx % n)
			}
			if err != nil {
				t.Fatalf("edit op %d: %v", step/opBytes, err)
			}
			assertSamePipeline(t, fmt.Sprintf("fuzz op %d", step/opBytes), ctx, s, referenceOf(ctx, s))
		}
		if fb := s.Stats().Incremental.FallbackDirty; fb != 0 {
			t.Fatalf("%d reuse-invariant fallbacks", fb)
		}
	})
}

func FuzzReadGDS(f *testing.F) {
	for _, l := range textSeedLayouts() {
		var buf bytes.Buffer
		if err := WriteGDS(&buf, l); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Truncations and header corruptions of a valid stream.
	var ref bytes.Buffer
	if err := WriteGDS(&ref, Figure1Layout()); err != nil {
		f.Fatal(err)
	}
	for _, cut := range []int{1, 4, 17, ref.Len() / 2, ref.Len() - 3} {
		if cut < ref.Len() {
			f.Add(ref.Bytes()[:cut])
		}
	}
	corrupt := append([]byte(nil), ref.Bytes()...)
	corrupt[2] = 0x42 // unknown record type up front
	f.Add(corrupt)
	f.Add([]byte{0, 4, 0x04, 0}) // lone ENDLIB (missing HEADER)
	// The records before LIBNAME (HEADER, BGNLIB), then a cut two bytes
	// into the LIBNAME header, and the stream with LIBNAME replaced by a
	// maximum-length (0xFFFF-byte) record.
	recLen := func(b []byte) int { return int(b[0])<<8 | int(b[1]) }
	head := recLen(ref.Bytes())
	head += recLen(ref.Bytes()[head:])
	f.Add(ref.Bytes()[:head+2])
	longName := append([]byte{0xFF, 0xFF, 0x02, 0x06}, bytes.Repeat([]byte{'L'}, 0xFFFF-4)...)
	maxRecord := append(append(append([]byte(nil), ref.Bytes()[:head]...), longName...),
		ref.Bytes()[head+recLen(ref.Bytes()[head:]):]...)
	f.Add(maxRecord)
	// Hierarchical seeds: SREF/AREF placements, a rectilinear polygon, and
	// a reference cycle (the reader must reject it, not loop).
	cross := gds.Poly{Layer: 0, Pts: []geom.Point{
		{X: 400, Y: 0}, {X: 600, Y: 0}, {X: 600, Y: 400}, {X: 1000, Y: 400},
		{X: 1000, Y: 600}, {X: 600, Y: 600}, {X: 600, Y: 1000}, {X: 400, Y: 1000},
		{X: 400, Y: 600}, {X: 0, Y: 600}, {X: 0, Y: 400}, {X: 400, Y: 400},
	}}
	leaf := &gds.Cell{Name: "LEAF", Polys: []gds.Poly{
		{Layer: 0, Pts: []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 1000}, {X: 0, Y: 1000}}},
		cross,
	}}
	for _, lib := range []*gds.Library{
		{Name: "HIER", Cells: []*gds.Cell{
			{Name: "TOP", Refs: []gds.Ref{
				{Cell: "LEAF"},
				{Cell: "LEAF", Origin: geom.Point{X: 5000}, Rot: 90, Reflect: true},
				{Cell: "LEAF", Origin: geom.Point{Y: 5000}, Cols: 3, Rows: 2,
					ColStep: geom.Point{X: 4000}, RowStep: geom.Point{Y: 4000}},
			}},
			leaf,
		}},
		{Name: "CYCLE", Cells: []*gds.Cell{
			{Name: "A", Refs: []gds.Ref{{Cell: "B"}}},
			{Name: "B", Refs: []gds.Ref{{Cell: "A"}}},
		}},
	} {
		var buf bytes.Buffer
		if err := gds.WriteLibrary(&buf, lib); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		l1, err := ReadGDS(bytes.NewReader(data))
		if err != nil {
			return
		}
		var w1 bytes.Buffer
		if err := WriteGDS(&w1, l1); err != nil {
			// The only legitimate failure is a pathologically long library
			// name blowing the 64 KB record limit.
			if strings.Contains(err.Error(), "record too long") {
				return
			}
			t.Fatalf("write of parsed layout failed: %v", err)
		}
		l2, err := ReadGDS(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written stream failed: %v", err)
		}
		if len(l1.Features) != len(l2.Features) {
			t.Fatalf("round trip changed feature count %d -> %d", len(l1.Features), len(l2.Features))
		}
		for i := range l1.Features {
			// Group is polygon-decomposition provenance, not geometry: the
			// flat writer emits one BOUNDARY per rect, so a multi-rect
			// polygon's group id does not survive a flat round trip.
			a, b := l1.Features[i], l2.Features[i]
			a.Group, b.Group = 0, 0
			if a != b {
				t.Fatalf("feature %d changed in round trip: %+v -> %+v", i, l1.Features[i], l2.Features[i])
			}
		}
		var w2 bytes.Buffer
		if err := WriteGDS(&w2, l2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatal("GDS writer is not idempotent")
		}
	})
}
