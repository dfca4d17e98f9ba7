package gds

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/geom"
	"repro/internal/layout"
)

// Typed flattening errors, matchable with errors.Is.
var (
	// ErrUnknownTopCell is returned when ReadOptions.TopCell names no cell.
	ErrUnknownTopCell = errors.New("gds: unknown top cell")
	// ErrUnknownCell is returned when a reference targets a cell the
	// library does not define.
	ErrUnknownCell = errors.New("gds: reference to unknown cell")
	// ErrReferenceCycle is returned when the cell reference graph is not a
	// DAG.
	ErrReferenceCycle = errors.New("gds: cell reference cycle")
	// ErrMaxDepth is returned when the hierarchy nests deeper than
	// ReadOptions.MaxDepth.
	ErrMaxDepth = errors.New("gds: hierarchy exceeds depth limit")
	// ErrTooLarge is returned when flattening would exceed
	// ReadOptions.MaxFlattenedFeatures.
	ErrTooLarge = errors.New("gds: flattened layout exceeds feature limit")
	// ErrEmptyLibrary is returned for a library with no cells.
	ErrEmptyLibrary = errors.New("gds: empty library")
)

// Default limits applied when the corresponding ReadOptions field is zero.
const (
	DefaultMaxDepth             = 64
	DefaultMaxFlattenedFeatures = 1 << 22
)

// ReadOptions configures hierarchy expansion.
type ReadOptions struct {
	// TopCell names the cell to flatten. Empty selects every root cell —
	// cells referenced by no other cell — in library order, preserving the
	// historic behavior of merging all structures of a reference-free
	// stream.
	TopCell string
	// Flatten discards instance provenance: the result carries no
	// layout.Hierarchy sidecar, exactly as if the layout had been drawn
	// flat. When false (the default) the sidecar is attached whenever the
	// stream contains placements. Detection results and solve sharing are
	// the same either way.
	Flatten bool
	// MaxDepth bounds reference nesting (0: DefaultMaxDepth).
	MaxDepth int
	// MaxFlattenedFeatures bounds the expanded feature count, including
	// polygon decomposition sub-rectangles (0: DefaultMaxFlattenedFeatures).
	MaxFlattenedFeatures int
}

// ReadWith parses a GDSII stream and flattens it under opt.
func ReadWith(r io.Reader, opt ReadOptions) (*layout.Layout, error) {
	lib, err := ReadLibrary(r)
	if err != nil {
		return nil, err
	}
	return lib.Flatten(opt)
}

// cumulative magnification bound: transformed coordinates must stay far
// from int64 overflow even after translation.
const flattenMagLimit = 1 << 20

// xform is a rectilinear affine map p ↦ M·(m·p) + t with M an orthogonal
// signed-permutation matrix {a,b;c,d}.
type xform struct {
	a, b, c, d int64
	m          int64
	tx, ty     int64
}

func identityXform() xform { return xform{a: 1, d: 1, m: 1} }

func (x xform) apply(p geom.Point) geom.Point {
	px, py := p.X*x.m, p.Y*x.m
	return geom.Pt(x.a*px+x.b*py+x.tx, x.c*px+x.d*py+x.ty)
}

// rect maps a rectangle: a rectilinear transform of a rectangle is the
// rectangle spanned by the images of two opposite corners.
func (x xform) rect(r geom.Rect) geom.Rect {
	p, q := x.apply(geom.Pt(r.X0, r.Y0)), x.apply(geom.Pt(r.X1, r.Y1))
	return geom.R(p.X, p.Y, q.X, q.Y)
}

// compose returns x∘y: the transform applying y first, then x.
func (x xform) compose(y xform) xform {
	return xform{
		a: x.a*y.a + x.b*y.c, b: x.a*y.b + x.b*y.d,
		c: x.c*y.a + x.d*y.c, d: x.c*y.b + x.d*y.d,
		m:  x.m * y.m,
		tx: x.m*(x.a*y.tx+x.b*y.ty) + x.tx,
		ty: x.m*(x.c*y.tx+x.d*y.ty) + x.ty,
	}
}

// refXform builds the placement transform of rf at origin (reflect about X,
// then rotate, then magnify and translate).
func refXform(rf Ref, origin geom.Point) xform {
	var a, b, c, d int64
	switch rf.Rot {
	case 90:
		a, b, c, d = 0, -1, 1, 0
	case 180:
		a, b, c, d = -1, 0, 0, -1
	case 270:
		a, b, c, d = 0, 1, -1, 0
	default:
		a, b, c, d = 1, 0, 0, 1
	}
	if rf.Reflect { // M·diag(1,-1): negate the second column
		b, d = -b, -d
	}
	m := rf.Mag
	if m == 0 {
		m = 1
	}
	return xform{a: a, b: b, c: c, d: d, m: m, tx: origin.X, ty: origin.Y}
}

// flattener carries the expansion state over the recursive walk.
type flattener struct {
	lib      *Library
	maxDepth int
	maxFeat  int

	l         *layout.Layout
	nextGroup int

	placeCell []int32 // cell index per top-level placement
	keepInst  bool    // whether featInst is filled: a sidecar may be kept
	featInst  []int32 // placement index per emitted feature
	onPath    []bool  // cells on the current DFS path (cycle check)

	index map[string]int // cell name -> first index, built on first lookup
	count []int          // memoized flattened polygon count per cell, -1 unknown

	pts []geom.Point // transformed ring of the polygon being decomposed
}

// Flatten expands the library into the flat layout model. Cells referenced
// from a root are placed; every top-level placement (each AREF element
// counts individually) becomes one instance in the attached
// layout.Hierarchy, and nested placements inherit the top-level instance
// they were expanded under. See ReadOptions for limits and sidecar control.
func (lib *Library) Flatten(opt ReadOptions) (*layout.Layout, error) {
	if len(lib.Cells) == 0 {
		return nil, ErrEmptyLibrary
	}
	st := &flattener{
		lib:      lib,
		maxDepth: opt.MaxDepth,
		maxFeat:  opt.MaxFlattenedFeatures,
		onPath:   make([]bool, len(lib.Cells)),
	}
	var roots []int
	if opt.TopCell != "" {
		ci := st.cellIndex(opt.TopCell)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTopCell, opt.TopCell)
		}
		roots = []int{ci}
	} else {
		referenced := make(map[string]bool)
		for _, c := range lib.Cells {
			for _, rf := range c.Refs {
				referenced[rf.Cell] = true
			}
		}
		for ci, c := range lib.Cells {
			if !referenced[c.Name] {
				roots = append(roots, ci)
			}
		}
		if len(roots) == 0 {
			return nil, fmt.Errorf("%w: every cell is referenced", ErrReferenceCycle)
		}
	}
	if st.maxDepth == 0 {
		st.maxDepth = DefaultMaxDepth
	}
	if st.maxFeat == 0 {
		st.maxFeat = DefaultMaxFlattenedFeatures
	}
	name := lib.Name
	if name == "" {
		name = lib.Cells[roots[0]].Name
	}
	st.l = layout.New(name)
	// Size the outputs from the polygon count; decomposing a non-rectangle
	// ring may add features beyond it, and a count over the limit fails the
	// walk anyway. Placement tags are kept only when a root places cells
	// and the sidecar is wanted.
	total := 0
	st.count = make([]int, len(lib.Cells))
	for i := range st.count {
		st.count[i] = -1
	}
	for _, root := range roots {
		total = min(total+st.polyCount(root), st.maxFeat+1)
		st.keepInst = st.keepInst || (!opt.Flatten && len(lib.Cells[root].Refs) > 0)
	}
	if total > 0 && total <= st.maxFeat {
		st.l.Features = make([]layout.Feature, 0, total)
		if st.keepInst {
			st.featInst = make([]int32, 0, total)
		}
	}
	for _, root := range roots {
		if err := st.cell(root, identityXform(), 0, -1, true); err != nil {
			return nil, err
		}
	}
	if len(st.placeCell) > 0 && !opt.Flatten {
		cells := make([]string, len(lib.Cells))
		for i, c := range lib.Cells {
			cells[i] = c.Name
		}
		st.l.Hier = &layout.Hierarchy{
			Cells:           cells,
			PlacementCell:   st.placeCell,
			FeatureInstance: st.featInst,
		}
	}
	return st.l, nil
}

// cell expands one placement of cell ci under transform xf. inst is the
// top-level placement every emitted feature is tagged with (-1 inside a
// root cell); top marks root-cell scope, where each reference opens a new
// placement.
func (st *flattener) cell(ci int, xf xform, depth int, inst int32, top bool) error {
	if depth > st.maxDepth {
		return fmt.Errorf("%w (%d)", ErrMaxDepth, st.maxDepth)
	}
	if st.onPath[ci] {
		return fmt.Errorf("%w through %q", ErrReferenceCycle, st.lib.Cells[ci].Name)
	}
	st.onPath[ci] = true
	defer func() { st.onPath[ci] = false }()
	c := st.lib.Cells[ci]
	for _, p := range c.Polys {
		if err := st.poly(c.Name, p, xf, inst); err != nil {
			return err
		}
	}
	for _, rf := range c.Refs {
		ti := st.cellIndex(rf.Cell)
		if ti < 0 {
			return fmt.Errorf("%w: %q from %q", ErrUnknownCell, rf.Cell, c.Name)
		}
		cols, rows := rf.Cols, rf.Rows
		if !rf.isArray() {
			cols, rows = 1, 1
		}
		for j := 0; j < rows; j++ {
			for i := 0; i < cols; i++ {
				origin := geom.Pt(
					rf.Origin.X+int64(i)*rf.ColStep.X+int64(j)*rf.RowStep.X,
					rf.Origin.Y+int64(i)*rf.ColStep.Y+int64(j)*rf.RowStep.Y,
				)
				child := xf.compose(refXform(rf, origin))
				if child.m > flattenMagLimit {
					return fmt.Errorf("%w: cumulative magnification %d", ErrUnsupportedTransform, child.m)
				}
				childInst := inst
				if top {
					childInst = int32(len(st.placeCell))
					st.placeCell = append(st.placeCell, int32(ti))
				}
				if err := st.cell(ti, child, depth+1, childInst, false); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// poly transforms one boundary polygon and decomposes it into feature
// rectangles. A plain rectangle ring (geom.AxisRect) is transformed as a
// rectangle; any other ring goes through geom.DecomposeRectilinear.
// Polygons that decompose into a single rectangle stay group 0 (a plain
// rectangle); multi-rectangle decompositions share a fresh group id so
// downstream attribution can address the drawn polygon.
func (st *flattener) poly(cellName string, p Poly, xf xform, inst int32) error {
	if r, ok := geom.AxisRect(p.Pts); ok {
		return st.emit(xf.rect(r), p.Layer, 0, inst)
	}
	st.pts = st.pts[:0]
	for _, pt := range p.Pts {
		st.pts = append(st.pts, xf.apply(pt))
	}
	rects, err := geom.DecomposeRectilinear(st.pts)
	if err != nil {
		return fmt.Errorf("%w: cell %q: %v", ErrNotRectangle, cellName, err)
	}
	group := 0
	if len(rects) > 1 {
		st.nextGroup++
		group = st.nextGroup
	}
	for _, r := range rects {
		if err := st.emit(r, p.Layer, group, inst); err != nil {
			return err
		}
	}
	return nil
}

// emit appends one feature tagged with its top-level placement.
func (st *flattener) emit(r geom.Rect, layer, group int, inst int32) error {
	if len(st.l.Features) >= st.maxFeat {
		return fmt.Errorf("%w (%d)", ErrTooLarge, st.maxFeat)
	}
	st.l.Features = append(st.l.Features, layout.Feature{Rect: r, Layer: layer, Group: group})
	if st.keepInst {
		st.featInst = append(st.featInst, inst)
	}
	return nil
}

// cellIndex is lib.CellIndex through a name index built on the first call.
func (st *flattener) cellIndex(name string) int {
	if st.index == nil {
		st.index = make(map[string]int, len(st.lib.Cells))
		for i := len(st.lib.Cells) - 1; i >= 0; i-- {
			st.index[st.lib.Cells[i].Name] = i
		}
	}
	if i, ok := st.index[name]; ok {
		return i
	}
	return -1
}

// polyCount returns how many polygons flattening cell ci emits, at most
// maxFeat+1. References to unknown cells and cycles count nothing here; the
// walk reports them.
func (st *flattener) polyCount(ci int) int {
	if st.count[ci] >= 0 {
		return st.count[ci]
	}
	st.count[ci] = 0 // a cycle back to ci counts nothing
	c := st.lib.Cells[ci]
	limit := st.maxFeat + 1
	n := min(len(c.Polys), limit)
	for _, rf := range c.Refs {
		ti := st.cellIndex(rf.Cell)
		if ti < 0 {
			continue
		}
		each := st.polyCount(ti)
		cols, rows := 1, 1
		if rf.isArray() {
			cols, rows = max(rf.Cols, 0), max(rf.Rows, 0)
		}
		if each == 0 || cols == 0 || rows == 0 {
			continue
		}
		if room := (limit - n) / each; cols > room || rows > room/cols {
			n = limit
			break
		}
		n += cols * rows * each
	}
	st.count[ci] = n
	return n
}
