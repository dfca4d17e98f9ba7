package gds

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/layout"
)

// suiteLayout generates the named bench.Suite design.
func suiteLayout(t testing.TB, name string) *layout.Layout {
	t.Helper()
	for _, d := range bench.Suite() {
		if d.Name == name {
			return bench.Generate(d.Name, d.Params)
		}
	}
	t.Fatalf("no suite design %q", name)
	return nil
}

// flatStream serializes l as a flat GDS stream.
func flatStream(t testing.TB, l *layout.Layout) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// arrayLibrary places l's features, as one cell, in a cols×rows AREF with
// 1000 nm of clearance between sites.
func arrayLibrary(l *layout.Layout, cols, rows int) *Library {
	cell := &Cell{Name: "CELL"}
	for _, f := range l.Features {
		r := f.Rect
		cell.Polys = append(cell.Polys, rect(f.Layer, r.X0, r.Y0, r.X1, r.Y1))
	}
	bb := l.BBox()
	return &Library{Name: "ARRAY", Cells: []*Cell{
		{Name: "TOP", Refs: []Ref{{
			Cell: "CELL", Cols: cols, Rows: rows,
			ColStep: geom.Pt(bb.Width()+1000, 0),
			RowStep: geom.Pt(0, bb.Height()+1000),
		}}},
		cell,
	}}
}

func TestSuiteRoundTrip(t *testing.T) {
	for _, name := range []string{"d1", "d2", "d3", "d4", "d5"} {
		t.Run(name, func(t *testing.T) {
			l := suiteLayout(t, name)
			got, err := Read(bytes.NewReader(flatStream(t, l)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Features, l.Features) {
				t.Fatal("read features differ from the written layout")
			}
			if got.Hier != nil {
				t.Fatal("flat stream read with a hierarchy sidecar")
			}
		})
	}
}

func TestARefSuiteMatchesTranslatedCell(t *testing.T) {
	l := suiteLayout(t, "d3")
	const cols, rows = 3, 3
	lib := arrayLibrary(l, cols, rows)
	var buf bytes.Buffer
	if err := WriteLibrary(&buf, lib); err != nil {
		t.Fatal(err)
	}
	step := lib.Cells[0].Refs[0]
	var want []layout.Feature
	var wantInst []int32
	for j := 0; j < rows; j++ {
		for i := 0; i < cols; i++ {
			d := geom.Pt(int64(i)*step.ColStep.X, int64(j)*step.RowStep.Y)
			for _, f := range l.Features {
				f.Rect = f.Rect.Translate(d)
				want = append(want, f)
				wantInst = append(wantInst, int32(j*cols+i))
			}
		}
	}
	hier, err := ReadWith(bytes.NewReader(buf.Bytes()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hier.Features, want) {
		t.Fatal("AREF read differs from the cell translated per placement")
	}
	if hier.Hier == nil || !reflect.DeepEqual(hier.Hier.FeatureInstance, wantInst) ||
		len(hier.Hier.PlacementCell) != cols*rows {
		t.Fatal("AREF read carries the wrong hierarchy sidecar")
	}
	flat, err := ReadWith(bytes.NewReader(buf.Bytes()), ReadOptions{Flatten: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat.Features, want) || flat.Hier != nil {
		t.Fatal("Flatten: true differs from the hierarchical read")
	}
}

func TestReadAllocsPerPolygon(t *testing.T) {
	l := suiteLayout(t, "d3")
	data := flatStream(t, l)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadWith(bytes.NewReader(data), ReadOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	perPoly := allocs / float64(len(l.Features))
	t.Logf("d3: %.0f objects for %d polygons (%.3f per polygon)", allocs, len(l.Features), perPoly)
	if perPoly > 2 {
		t.Fatalf("%.2f objects per polygon, want <= 2", perPoly)
	}
}

// TestTruncatedHierStream cuts a small hierarchical stream at every byte
// offset: each prefix must fail cleanly, never panic or yield a layout.
func TestTruncatedHierStream(t *testing.T) {
	lib := &Library{Name: "T", Cells: []*Cell{
		{Name: "TOP", Refs: []Ref{
			{Cell: "A", Origin: geom.Pt(0, 0)},
			{Cell: "A", Origin: geom.Pt(5000, 0), Rot: 90, Reflect: true, Mag: 2},
			{Cell: "A", Origin: geom.Pt(0, 9000), Cols: 2, Rows: 3,
				ColStep: geom.Pt(2000, 0), RowStep: geom.Pt(0, 3000)},
		}},
		{Name: "A", Polys: []Poly{
			rect(0, 0, 0, 100, 600),
			{Layer: 1, Pts: []geom.Point{
				{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 200, Y: 100}, {X: 100, Y: 100},
				{X: 100, Y: 300}, {X: 0, Y: 300},
			}},
		}},
	}}
	var buf bytes.Buffer
	if err := WriteLibrary(&buf, lib); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader(full)); err != nil {
		t.Fatalf("full stream: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		l, err := Read(bytes.NewReader(full[:cut]))
		if err == nil || l != nil {
			t.Fatalf("prefix of %d/%d bytes: layout %v, err %v", cut, len(full), l != nil, err)
		}
	}
}

// TestMaxLengthRecord frames a 0xFFFF-byte record, the longest the length
// field allows, between ordinary records.
func TestMaxLengthRecord(t *testing.T) {
	l := layout.New("x")
	l.Add(geom.R(0, 0, 10, 10))
	full := flatStream(t, l)
	recLen := func(b []byte) int { return int(b[0])<<8 | int(b[1]) }
	head := recLen(full)
	head += recLen(full[head:]) // HEADER, BGNLIB
	name := bytes.Repeat([]byte{'N'}, maxRecord-4)
	var stream []byte
	stream = append(stream, full[:head]...)
	stream = append(stream, 0xFF, 0xFF, recLIBNAME, dtString)
	stream = append(stream, name...)
	stream = append(stream, full[head+recLen(full[head:]):]...)
	lib, err := ReadLibrary(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if lib.Name != string(name) || len(lib.Cells) != 1 || len(lib.Cells[0].Polys) != 1 {
		t.Fatalf("read name of %d bytes, %d cells", len(lib.Name), len(lib.Cells))
	}
	// Cut inside the next record's header: an error, not a missing ENDLIB.
	_, err = ReadLibrary(bytes.NewReader(stream[:head+maxRecord+2]))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut inside a header: %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// TestElementStateDoesNotLeak reads elements back to back through the one
// reused pending element: a plain SREF after a transformed AREF must not
// inherit its transform, and a BOUNDARY without XY must not take the
// previous element's points.
func TestElementStateDoesNotLeak(t *testing.T) {
	lib := &Library{Name: "L", Cells: []*Cell{
		{Name: "TOP", Refs: []Ref{
			{Cell: "A", Origin: geom.Pt(100, 0), Rot: 90, Reflect: true, Mag: 3,
				Cols: 2, Rows: 2, ColStep: geom.Pt(50, 0), RowStep: geom.Pt(0, 50)},
			{Cell: "A", Origin: geom.Pt(0, 100), Mag: 1},
		}},
		{Name: "A", Polys: []Poly{rect(7, 0, 0, 10, 10), rect(1, 0, 0, 5, 5)}},
	}}
	got := roundTrip(t, lib)
	if !reflect.DeepEqual(got.Cells[0].Refs, lib.Cells[0].Refs) {
		t.Fatalf("refs read back as %+v, want %+v", got.Cells[0].Refs, lib.Cells[0].Refs)
	}
	if l0, l1 := got.Cells[1].Polys[0].Layer, got.Cells[1].Polys[1].Layer; l0 != 7 || l1 != 1 {
		t.Fatalf("layers read back as %d, %d", l0, l1)
	}
	// Drop the last XY record (the second BOUNDARY's).
	var buf bytes.Buffer
	if err := WriteLibrary(&buf, lib); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	lastXY := -1
	for off := 0; off < len(stream); off += int(stream[off])<<8 | int(stream[off+1]) {
		if stream[off+2] == recXY {
			lastXY = off
		}
	}
	n := int(stream[lastXY])<<8 | int(stream[lastXY+1])
	cut := append(append([]byte(nil), stream[:lastXY]...), stream[lastXY+n:]...)
	if _, err := ReadLibrary(bytes.NewReader(cut)); err == nil {
		t.Fatal("BOUNDARY without XY accepted")
	}
}

func BenchmarkReadD5(b *testing.B) {
	l := suiteLayout(b, "d5")
	data := flatStream(b, l)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadWith(bytes.NewReader(data), ReadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadArrayD3(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteLibrary(&buf, arrayLibrary(suiteLayout(b, "d3"), 3, 3)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadWith(bytes.NewReader(data), ReadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// manyCellsLibrary returns a library of n one-rectangle cells C0..C{n-1},
// each placed once by a TOP cell that comes last, so every ENDSTR's
// duplicate check and every placement's cell lookup meets a large library.
func manyCellsLibrary(n int) *Library {
	lib := &Library{Name: "MANY"}
	top := &Cell{Name: "TOP"}
	for i := range n {
		name := fmt.Sprintf("C%d", i)
		x := int64(i%100) * 1000
		y := int64(i/100) * 1000
		lib.Cells = append(lib.Cells, &Cell{Name: name, Polys: []Poly{{
			Layer: 1,
			Pts:   []geom.Point{{X: 0, Y: 0}, {X: 500, Y: 0}, {X: 500, Y: 100}, {X: 0, Y: 100}},
		}}})
		top.Refs = append(top.Refs, Ref{Cell: name, Origin: geom.Pt(x, y)})
	}
	lib.Cells = append(lib.Cells, top)
	return lib
}

// TestManyCellsRoundTrip reads and flattens a library of 8 000 cells: each
// placement lands its one rectangle at its own origin, tagged with its own
// placement and cell, and a duplicated cell name is still rejected.
func TestManyCellsRoundTrip(t *testing.T) {
	const n = 8000
	var buf bytes.Buffer
	if err := WriteLibrary(&buf, manyCellsLibrary(n)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	lib, err := ReadLibrary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Cells) != n+1 || lib.CellIndex("TOP") != n || lib.CellIndex("C4321") != 4321 || lib.CellIndex("nope") != -1 {
		t.Fatalf("library has %d cells, TOP at %d, C4321 at %d", len(lib.Cells), lib.CellIndex("TOP"), lib.CellIndex("C4321"))
	}
	l, err := lib.Flatten(ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Features) != n || l.Hier == nil || len(l.Hier.PlacementCell) != n {
		t.Fatalf("%d features, hierarchy %v", len(l.Features), l.Hier != nil)
	}
	for i, f := range l.Features {
		x, y := int64(i%100)*1000, int64(i/100)*1000
		if f.Rect != geom.R(x, y, x+500, y+100) || f.Layer != 1 {
			t.Fatalf("feature %d = %+v", i, f)
		}
		if l.Hier.FeatureInstance[i] != int32(i) || l.Hier.PlacementCell[i] != int32(i) {
			t.Fatalf("feature %d: instance %d, cell %d", i, l.Hier.FeatureInstance[i], l.Hier.PlacementCell[i])
		}
	}
	flat, err := lib.Flatten(ReadOptions{TopCell: "TOP", Flatten: true})
	if err != nil || flat.Hier != nil || !reflect.DeepEqual(flat.Features, l.Features) {
		t.Fatalf("TOP with Flatten: err %v, hierarchy %v", err, flat.Hier != nil)
	}

	dup := manyCellsLibrary(n)
	dup.Cells[n-1].Name = "C17"
	buf.Reset()
	if err := WriteLibrary(&buf, dup); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLibrary(bytes.NewReader(buf.Bytes())); err == nil || err.Error() != `gds: duplicate structure "C17"` {
		t.Fatalf("duplicate cell: err %v", err)
	}
}

// BenchmarkReadManyCells times reading and flattening libraries of 2 000
// and 8 000 one-rectangle cells.
func BenchmarkReadManyCells(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		var buf bytes.Buffer
		if err := WriteLibrary(&buf, manyCellsLibrary(n)); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(fmt.Sprintf("read/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadLibrary(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
		lib, err := ReadLibrary(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("flatten/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lib.Flatten(ReadOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
