package gds

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/geom"
)

// ErrUnknownRecord is returned for record types outside the supported
// subset. The reader reports them instead of silently skipping records, so
// a stream the tools cannot faithfully interpret is rejected up front.
var ErrUnknownRecord = errors.New("gds: unsupported record")

// ErrUnsupportedTransform is returned for placement transforms outside the
// rectilinear subgroup: rotations that are not multiples of 90°,
// non-integral or non-positive magnification, or absolute-transform flags.
var ErrUnsupportedTransform = errors.New("gds: unsupported placement transform")

// Poly is one BOUNDARY element: a simple rectilinear polygon on a layer.
// The closing edge back to the first vertex is implicit.
type Poly struct {
	Layer int
	Pts   []geom.Point
}

// Ref is one SREF or AREF element: a placement of another cell. The
// transform applies reflection about the X axis first, then rotation, then
// magnification and translation — the GDSII convention restricted to the
// rectilinear subgroup.
type Ref struct {
	Cell    string
	Origin  geom.Point
	Rot     int   // degrees counterclockwise: 0, 90, 180 or 270
	Reflect bool  // reflect about the X axis (before rotation)
	Mag     int64 // integral magnification; 0 means 1

	// AREF lattice: Cols×Rows placements stepped by ColStep/RowStep in the
	// parent's coordinates (already transformed, per the GDSII AREF XY
	// convention). Both counts are zero for an SREF.
	Cols, Rows       int
	ColStep, RowStep geom.Point
}

// isArray reports whether the ref is an AREF.
func (rf Ref) isArray() bool { return rf.Cols > 0 || rf.Rows > 0 }

// Cell is one GDSII structure: local geometry plus placements.
type Cell struct {
	Name  string
	Polys []Poly
	Refs  []Ref
}

// Library is a parsed GDSII library: an ordered list of cells.
type Library struct {
	Name  string
	Cells []*Cell
}

// CellIndex returns the index of the first cell with the given name, or -1.
// It scans the cells; Flatten resolves references through a name index
// instead.
func (lib *Library) CellIndex(name string) int {
	for i, c := range lib.Cells {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// maxRecord is the longest legal record: the 16-bit length field counts
// the 4-byte header too.
const maxRecord = 0xFFFF

// record is one framed GDSII record. Its payload is a view into the
// reader's buffer and stays valid only until the next readRecord, so
// nothing may keep it: str copies, and the numeric decoders copy into
// caller-owned storage.
type record struct {
	rt, dt  byte
	payload []byte
}

// i16n returns the value count of an int16 record, or -1 if it is
// malformed.
func (rec record) i16n() int {
	if rec.dt != dtInt16 || len(rec.payload)%2 != 0 {
		return -1
	}
	return len(rec.payload) / 2
}

// i16 returns value i of an int16 record.
func (rec record) i16(i int) int16 {
	return int16(binary.BigEndian.Uint16(rec.payload[2*i:]))
}

// i32s appends the record's int32 values to dst.
func (rec record) i32s(dst []int32) ([]int32, error) {
	if rec.dt != dtInt32 || len(rec.payload)%4 != 0 {
		return dst, fmt.Errorf("gds: malformed int32 record 0x%02x", rec.rt)
	}
	for i := 0; i < len(rec.payload); i += 4 {
		dst = append(dst, int32(binary.BigEndian.Uint32(rec.payload[i:])))
	}
	return dst, nil
}

func (rec record) str() string { return string(trimPad(rec.payload)) }

func (rec record) real8() (float64, error) {
	if rec.dt != dtReal8 || len(rec.payload) != 8 {
		return 0, fmt.Errorf("gds: malformed real8 record 0x%02x", rec.rt)
	}
	return decodeReal8(rec.payload), nil
}

// readRecord frames one record in place: br must buffer at least maxRecord
// bytes, so the whole record can be peeked and then discarded without a
// copy.
func readRecord(br *bufio.Reader) (record, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF {
			if len(hdr) == 0 {
				return record{}, fmt.Errorf("gds: missing ENDLIB")
			}
			err = io.ErrUnexpectedEOF
		}
		return record{}, err
	}
	length := int(hdr[0])<<8 | int(hdr[1])
	if length < 4 {
		return record{}, fmt.Errorf("gds: record length %d < 4", length)
	}
	rt, dt := hdr[2], hdr[3]
	buf, err := br.Peek(length)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return record{}, fmt.Errorf("gds: truncated record 0x%02x: %w", rt, err)
	}
	br.Discard(length) // cannot fail: the record is buffered
	return record{rt: rt, dt: dt, payload: buf[4:length:length]}, nil
}

// pendingElem accumulates the records of one element until its ENDEL. One
// value serves a whole library: LAYER and COLROW decode into its fields,
// XY into a buffer that reset keeps.
type pendingElem struct {
	kind     byte // recBOUNDARY, recSREF or recAREF
	layer    int16
	xy       []int32
	haveXY   bool
	sname    string
	reflect  bool
	mag      float64
	haveMag  bool
	angle    float64
	cols     int16
	rows     int16
	haveGrid bool
}

// reset starts a new element of the given kind, keeping the XY buffer.
func (el *pendingElem) reset(kind byte) {
	*el = pendingElem{kind: kind, mag: 1, xy: el.xy[:0]}
}

// Point slab chunk sizes: chunks double from slabMin up to slabMax points.
const (
	slabMin = 64
	slabMax = 1 << 13
)

// pointSlab carves BOUNDARY point slices out of shared chunks, so a
// library's polygons cost one allocation per chunk rather than one each.
type pointSlab struct {
	free  []geom.Point
	chunk int
}

// take returns n points of fresh storage, capped so an append cannot run
// into a neighbour.
func (s *pointSlab) take(n int) []geom.Point {
	if len(s.free) < n {
		s.chunk = min(max(2*s.chunk, slabMin), slabMax)
		s.free = make([]geom.Point, max(n, s.chunk))
	}
	pts := s.free[:n:n]
	s.free = s.free[n:]
	return pts
}

// ReadLibrary parses a GDSII stream into its structure view. Unsupported
// record types yield ErrUnknownRecord; transforms outside the rectilinear
// subgroup yield ErrUnsupportedTransform.
func ReadLibrary(r io.Reader) (*Library, error) {
	br := bufio.NewReaderSize(r, maxRecord)
	lib := &Library{}
	names := make(map[string]bool) // cell names so far, for the duplicate check
	var cur *Cell                  // inside BGNSTR..ENDSTR
	var el pendingElem
	inElem := false
	var slab pointSlab
	sawHeader := false
	for {
		rec, err := readRecord(br)
		if err != nil {
			return nil, err
		}
		if !sawHeader && rec.rt != recHEADER {
			return nil, fmt.Errorf("gds: stream does not start with HEADER")
		}
		if inElem {
			done, err := el.consume(rec)
			if err != nil {
				return nil, err
			}
			if done {
				if err := el.finish(cur, &slab); err != nil {
					return nil, err
				}
				inElem = false
			}
			continue
		}
		switch rec.rt {
		case recHEADER:
			sawHeader = true
		case recBGNLIB:
			// Timestamps; ignored.
		case recLIBNAME:
			lib.Name = rec.str()
		case recUNITS:
			if rec.dt != dtReal8 || len(rec.payload) != 16 {
				return nil, fmt.Errorf("gds: malformed UNITS")
			}
			meters := decodeReal8(rec.payload[8:16])
			// Expect a 1 nm database unit (tolerate rounding).
			if meters < 0.5e-9 || meters > 2e-9 {
				return nil, fmt.Errorf("gds: unsupported database unit %g m (want 1e-9)", meters)
			}
		case recBGNSTR:
			if cur != nil {
				return nil, fmt.Errorf("gds: nested BGNSTR")
			}
			cur = &Cell{}
		case recSTRNAME:
			if cur == nil {
				return nil, fmt.Errorf("gds: STRNAME outside structure")
			}
			cur.Name = rec.str()
		case recENDSTR:
			if cur == nil {
				return nil, fmt.Errorf("gds: ENDSTR outside structure")
			}
			if cur.Name == "" {
				return nil, fmt.Errorf("gds: structure without STRNAME")
			}
			if names[cur.Name] {
				return nil, fmt.Errorf("gds: duplicate structure %q", cur.Name)
			}
			names[cur.Name] = true
			lib.Cells = append(lib.Cells, cur)
			cur = nil
		case recBOUNDARY, recSREF, recAREF:
			if cur == nil {
				return nil, fmt.Errorf("gds: element 0x%02x outside structure", rec.rt)
			}
			el.reset(rec.rt)
			inElem = true
		case recENDLIB:
			if cur != nil {
				return nil, fmt.Errorf("gds: ENDLIB inside structure")
			}
			return lib, nil
		default:
			return nil, fmt.Errorf("%w 0x%02x", ErrUnknownRecord, rec.rt)
		}
	}
}

// consume folds one record into the pending element; it reports true on the
// element's ENDEL.
func (el *pendingElem) consume(rec record) (bool, error) {
	switch rec.rt {
	case recENDEL:
		return true, nil
	case recLAYER:
		if el.kind != recBOUNDARY {
			return false, fmt.Errorf("gds: LAYER inside reference")
		}
		if rec.i16n() < 1 {
			return false, fmt.Errorf("gds: malformed LAYER")
		}
		el.layer = rec.i16(0)
	case recDATATYPE:
		if el.kind != recBOUNDARY {
			return false, fmt.Errorf("gds: DATATYPE inside reference")
		}
	case recXY:
		xy, err := rec.i32s(el.xy[:0])
		el.xy = xy
		if err != nil {
			return false, err
		}
		if len(xy)%2 != 0 {
			return false, fmt.Errorf("gds: malformed XY")
		}
		el.haveXY = true
	case recSNAME:
		if el.kind == recBOUNDARY {
			return false, fmt.Errorf("gds: SNAME inside boundary")
		}
		el.sname = rec.str()
	case recSTRANS:
		if el.kind == recBOUNDARY {
			return false, fmt.Errorf("gds: STRANS inside boundary")
		}
		if rec.dt != dtBits || len(rec.payload) != 2 {
			return false, fmt.Errorf("gds: malformed STRANS")
		}
		bits := binary.BigEndian.Uint16(rec.payload)
		if bits&0x0006 != 0 { // absolute magnification / absolute angle
			return false, fmt.Errorf("%w: absolute STRANS flags 0x%04x", ErrUnsupportedTransform, bits)
		}
		el.reflect = bits&0x8000 != 0
	case recMAG:
		v, err := rec.real8()
		if err != nil {
			return false, err
		}
		el.mag = v
		el.haveMag = true
	case recANGLE:
		v, err := rec.real8()
		if err != nil {
			return false, err
		}
		el.angle = v
	case recCOLROW:
		if el.kind != recAREF {
			return false, fmt.Errorf("gds: COLROW outside AREF")
		}
		if rec.i16n() != 2 {
			return false, fmt.Errorf("gds: malformed COLROW")
		}
		el.cols, el.rows = rec.i16(0), rec.i16(1)
		el.haveGrid = true
	default:
		return false, fmt.Errorf("%w 0x%02x inside element", ErrUnknownRecord, rec.rt)
	}
	return false, nil
}

// finish validates the accumulated element and appends it to the cell,
// carving BOUNDARY points from slab.
func (el *pendingElem) finish(cur *Cell, slab *pointSlab) error {
	if !el.haveXY {
		return fmt.Errorf("gds: element 0x%02x without XY", el.kind)
	}
	if el.kind == recBOUNDARY {
		n := len(el.xy) / 2
		if n < 4 {
			return ErrNotRectangle
		}
		pts := slab.take(n)
		for i := range pts {
			pts[i] = geom.Pt(int64(el.xy[2*i]), int64(el.xy[2*i+1]))
		}
		cur.Polys = append(cur.Polys, Poly{Layer: int(el.layer), Pts: pts})
		return nil
	}
	if el.sname == "" {
		return fmt.Errorf("gds: reference without SNAME")
	}
	rot, err := rotFromAngle(el.angle)
	if err != nil {
		return err
	}
	mag := int64(1)
	if el.haveMag {
		mag = int64(el.mag)
		if float64(mag) != el.mag || mag < 1 || mag > magLimit {
			return fmt.Errorf("%w: magnification %g", ErrUnsupportedTransform, el.mag)
		}
	}
	rf := Ref{Cell: el.sname, Rot: rot, Reflect: el.reflect, Mag: mag}
	switch el.kind {
	case recSREF:
		if len(el.xy) != 2 {
			return fmt.Errorf("gds: SREF XY wants 1 point, got %d", len(el.xy)/2)
		}
		rf.Origin = geom.Pt(int64(el.xy[0]), int64(el.xy[1]))
	case recAREF:
		if !el.haveGrid {
			return fmt.Errorf("gds: AREF without COLROW")
		}
		if el.cols < 1 || el.rows < 1 {
			return fmt.Errorf("gds: AREF grid %dx%d", el.cols, el.rows)
		}
		if len(el.xy) != 6 {
			return fmt.Errorf("gds: AREF XY wants 3 points, got %d", len(el.xy)/2)
		}
		rf.Origin = geom.Pt(int64(el.xy[0]), int64(el.xy[1]))
		rf.Cols, rf.Rows = int(el.cols), int(el.rows)
		colRef := geom.Pt(int64(el.xy[2]), int64(el.xy[3]))
		rowRef := geom.Pt(int64(el.xy[4]), int64(el.xy[5]))
		rf.ColStep, err = latticeStep(rf.Origin, colRef, rf.Cols)
		if err != nil {
			return fmt.Errorf("gds: AREF column lattice: %w", err)
		}
		rf.RowStep, err = latticeStep(rf.Origin, rowRef, rf.Rows)
		if err != nil {
			return fmt.Errorf("gds: AREF row lattice: %w", err)
		}
	}
	cur.Refs = append(cur.Refs, rf)
	return nil
}

// magLimit bounds a single placement's magnification; the flattener bounds
// the cumulative product separately.
const magLimit = 1 << 16

// rotFromAngle maps a GDSII ANGLE (degrees counterclockwise) onto the
// rectilinear subgroup.
func rotFromAngle(deg float64) (int, error) {
	r := int(deg)
	if float64(r) != deg {
		return 0, fmt.Errorf("%w: angle %g°", ErrUnsupportedTransform, deg)
	}
	r %= 360
	if r < 0 {
		r += 360
	}
	if r%90 != 0 {
		return 0, fmt.Errorf("%w: angle %g°", ErrUnsupportedTransform, deg)
	}
	return r, nil
}

// latticeStep divides the displacement to an AREF reference point by the
// element count on that axis.
func latticeStep(origin, ref geom.Point, n int) (geom.Point, error) {
	dx, dy := ref.X-origin.X, ref.Y-origin.Y
	if dx%int64(n) != 0 || dy%int64(n) != 0 {
		return geom.Point{}, fmt.Errorf("displacement (%d,%d) not divisible by %d", dx, dy, n)
	}
	return geom.Pt(dx/int64(n), dy/int64(n)), nil
}

// libWriter emits framed records.
type libWriter struct {
	bw  *bufio.Writer
	err error
}

func (w *libWriter) emit(rt, dt byte, payload []byte) {
	if w.err != nil {
		return
	}
	length := 4 + len(payload)
	if length > 0xFFFF {
		w.err = fmt.Errorf("gds: record too long (%d)", length)
		return
	}
	hdr := []byte{byte(length >> 8), byte(length), rt, dt}
	if _, err := w.bw.Write(hdr); err != nil {
		w.err = err
		return
	}
	_, w.err = w.bw.Write(payload)
}

func (w *libWriter) i16(vals ...int16) []byte {
	out := make([]byte, 2*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint16(out[2*i:], uint16(v))
	}
	return out
}

func (w *libWriter) i32(vals ...int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func (w *libWriter) str(s string) []byte {
	b := []byte(s)
	if len(b)%2 == 1 {
		b = append(b, 0) // records are word-aligned
	}
	return b
}

func (w *libWriter) xyPoint(p geom.Point) (int32, int32, bool) {
	if !inInt32Range(p.X) || !inInt32Range(p.Y) {
		return 0, 0, false
	}
	return int32(p.X), int32(p.Y), true
}

// WriteLibrary serializes a hierarchical library as a GDSII stream. Output
// is deterministic: timestamps are fixed and cells, elements and records
// are emitted in model order.
func WriteLibrary(w io.Writer, lib *Library) error {
	lw := &libWriter{bw: bufio.NewWriter(w)}
	name := lib.Name
	if name == "" {
		name = "LIB"
	}
	ts := lw.i16(2005, 3, 7, 0, 0, 0, 2005, 3, 7, 0, 0, 0)
	lw.emit(recHEADER, dtInt16, lw.i16(600))
	lw.emit(recBGNLIB, dtInt16, ts)
	lw.emit(recLIBNAME, dtString, lw.str(name))
	lw.emit(recUNITS, dtReal8, append(encodeReal8(1e-3), encodeReal8(1e-9)...))
	for _, c := range lib.Cells {
		lw.emit(recBGNSTR, dtInt16, ts)
		lw.emit(recSTRNAME, dtString, lw.str(c.Name))
		for _, p := range c.Polys {
			lw.emit(recBOUNDARY, dtNone, nil)
			lw.emit(recLAYER, dtInt16, lw.i16(int16(p.Layer)))
			lw.emit(recDATATYPE, dtInt16, lw.i16(0))
			pts := p.Pts
			if len(pts) > 0 && pts[0] != pts[len(pts)-1] {
				pts = append(append([]geom.Point(nil), pts...), pts[0])
			}
			xy := make([]int32, 0, 2*len(pts))
			for _, pt := range pts {
				x, y, ok := lw.xyPoint(pt)
				if !ok {
					return fmt.Errorf("gds: cell %q polygon exceeds int32 coordinate range", c.Name)
				}
				xy = append(xy, x, y)
			}
			lw.emit(recXY, dtInt32, lw.i32(xy...))
			lw.emit(recENDEL, dtNone, nil)
		}
		for _, rf := range c.Refs {
			if err := lw.writeRef(c.Name, rf); err != nil {
				return err
			}
		}
		lw.emit(recENDSTR, dtNone, nil)
	}
	lw.emit(recENDLIB, dtNone, nil)
	if lw.err != nil {
		return lw.err
	}
	return lw.bw.Flush()
}

func (lw *libWriter) writeRef(cellName string, rf Ref) error {
	kind := byte(recSREF)
	if rf.isArray() {
		kind = recAREF
	}
	lw.emit(kind, dtNone, nil)
	lw.emit(recSNAME, dtString, lw.str(rf.Cell))
	mag := rf.Mag
	if mag == 0 {
		mag = 1
	}
	if rf.Reflect || rf.Rot != 0 || mag != 1 {
		var bits uint16
		if rf.Reflect {
			bits |= 0x8000
		}
		lw.emit(recSTRANS, dtBits, lw.i16(int16(bits)))
		if mag != 1 {
			lw.emit(recMAG, dtReal8, encodeReal8(float64(mag)))
		}
		if rf.Rot != 0 {
			lw.emit(recANGLE, dtReal8, encodeReal8(float64(rf.Rot)))
		}
	}
	var pts []geom.Point
	if rf.isArray() {
		lw.emit(recCOLROW, dtInt16, lw.i16(int16(rf.Cols), int16(rf.Rows)))
		pts = []geom.Point{
			rf.Origin,
			geom.Pt(rf.Origin.X+rf.ColStep.X*int64(rf.Cols), rf.Origin.Y+rf.ColStep.Y*int64(rf.Cols)),
			geom.Pt(rf.Origin.X+rf.RowStep.X*int64(rf.Rows), rf.Origin.Y+rf.RowStep.Y*int64(rf.Rows)),
		}
	} else {
		pts = []geom.Point{rf.Origin}
	}
	xy := make([]int32, 0, 2*len(pts))
	for _, pt := range pts {
		x, y, ok := lw.xyPoint(pt)
		if !ok {
			return fmt.Errorf("gds: cell %q reference exceeds int32 coordinate range", cellName)
		}
		xy = append(xy, x, y)
	}
	lw.emit(recXY, dtInt32, lw.i32(xy...))
	lw.emit(recENDEL, dtNone, nil)
	return nil
}
