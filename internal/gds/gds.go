// Package gds reads and writes the subset of the GDSII stream format the
// AAPSM tools need: multi-structure libraries whose cells hold rectilinear
// BOUNDARY elements and SREF/AREF placements restricted to the rectilinear
// transform subgroup (90° rotation multiples, X reflection, integral
// magnification). Database units are 1 nm (unit record: 0.001 user units,
// 1e-9 meters), matching the layout model's integer nanometer coordinates.
//
// ReadLibrary parses the structure view; Library.Flatten (or the ReadWith
// convenience wrapper) expands a cell DAG — with cycle, depth and size
// validation — into the flat layout model, optionally keeping a
// layout.Hierarchy sidecar that tags each feature with the top-level
// placement it came from.
//
// Ingest allocates per library, not per record. The reader frames each
// record in place in a read buffer sized for the longest legal record
// (64 KiB), so a record's payload is a view that is valid only until the
// next record is read: strings are copied out, and numeric records decode
// into storage the pending element reuses. BOUNDARY points are carved from
// shared chunks, one allocation per chunk. Flatten decomposes nothing that
// is already a rectangle: a BOUNDARY ring of four corners (or five, the
// first repeated) with axis-parallel edges and nonzero area
// (geom.AxisRect) is transformed as a rectangle. Every other ring,
// including those with duplicate or collinear vertices, goes through
// geom.DecomposeRectilinear, with its groups and errors.
//
// The record framing, data types and the excess-64 floating point encoding
// follow the Calma GDSII Stream Format Manual, release 6.0.
package gds

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/geom"
	"repro/internal/layout"
)

// Record types used by this subset.
const (
	recHEADER   = 0x00
	recBGNLIB   = 0x01
	recLIBNAME  = 0x02
	recUNITS    = 0x03
	recENDLIB   = 0x04
	recBGNSTR   = 0x05
	recSTRNAME  = 0x06
	recENDSTR   = 0x07
	recBOUNDARY = 0x08
	recSREF     = 0x0A
	recAREF     = 0x0B
	recLAYER    = 0x0D
	recDATATYPE = 0x0E
	recXY       = 0x10
	recENDEL    = 0x11
	recSNAME    = 0x12
	recCOLROW   = 0x13
	recSTRANS   = 0x1A
	recMAG      = 0x1B
	recANGLE    = 0x1C
)

// Data type codes.
const (
	dtNone   = 0x00
	dtBits   = 0x01
	dtInt16  = 0x02
	dtInt32  = 0x03
	dtReal8  = 0x05
	dtString = 0x06
)

// ErrNotRectangle is returned when a BOUNDARY is not a closed axis-aligned
// rectangle (the only polygon class the AAPSM layout model supports).
var ErrNotRectangle = errors.New("gds: boundary is not an axis-aligned rectangle")

// Write serializes the layout as a GDSII stream: a one-cell library whose
// cell and library are both named after the layout ("TOP" when unnamed),
// with one BOUNDARY per feature.
func Write(w io.Writer, l *layout.Layout) error {
	name := l.Name
	if name == "" {
		name = "TOP"
	}
	c := &Cell{Name: name, Polys: make([]Poly, len(l.Features))}
	for i, f := range l.Features {
		r := f.Rect
		// WriteLibrary range-checks the points too; checking here first
		// lets the error name the feature.
		if !inInt32Range(r.X0) || !inInt32Range(r.X1) || !inInt32Range(r.Y0) || !inInt32Range(r.Y1) {
			return fmt.Errorf("gds: feature %d exceeds int32 coordinate range", i)
		}
		// The explicit closing vertex keeps even a zero-area rectangle's
		// ring at five points.
		c.Polys[i] = Poly{Layer: f.Layer, Pts: []geom.Point{
			{X: r.X0, Y: r.Y0}, {X: r.X1, Y: r.Y0}, {X: r.X1, Y: r.Y1}, {X: r.X0, Y: r.Y1}, {X: r.X0, Y: r.Y0},
		}}
	}
	return WriteLibrary(w, &Library{Name: name, Cells: []*Cell{c}})
}

// Read parses a GDSII stream with default options: every root cell is
// flattened, and a hierarchy sidecar is attached when the stream contains
// placements. See ReadWith for control over top cell, depth and size limits.
func Read(r io.Reader) (*layout.Layout, error) {
	return ReadWith(r, ReadOptions{})
}

// encodeReal8 converts a float64 to the GDSII excess-64 base-16 real.
// Values outside the representable range saturate: magnitudes at or above
// 16^63 (including infinities) encode as the largest representable real of
// the same sign, magnitudes below the smallest normalized real (16^-65,
// which covers every float64 denormal) and NaN flush to zero. Negative zero
// encodes as plain zero — GDSII zero is all-bytes-zero with no sign.
func encodeReal8(v float64) []byte {
	out := make([]byte, 8)
	if v == 0 || math.IsNaN(v) {
		return out
	}
	neg := v < 0
	if neg {
		v = -v
	}
	exp := 0
	for v >= 1 && exp <= 64 {
		v /= 16
		exp++
	}
	for v < 1.0/16 && exp >= -65 {
		v *= 16
		exp--
	}
	mant := uint64(v * (1 << 56))
	if mant == 1<<56 { // rounding overflow
		mant >>= 4
		exp++
	}
	if exp > 63 { // overflow: saturate to the largest representable real
		exp, mant = 63, 1<<56-1
	}
	if exp < -64 || mant == 0 { // underflow: flush to zero
		return out
	}
	b0 := byte(exp + 64)
	if neg {
		b0 |= 0x80
	}
	out[0] = b0
	for i := 6; i >= 0; i-- {
		out[1+i] = byte(mant)
		mant >>= 8
	}
	return out
}

// inInt32Range reports whether v survives an int32() conversion unchanged.
func inInt32Range(v int64) bool {
	return v >= math.MinInt32 && v <= math.MaxInt32
}

// decodeReal8 converts a GDSII excess-64 real to float64.
func decodeReal8(b []byte) float64 {
	if len(b) != 8 {
		return math.NaN()
	}
	neg := b[0]&0x80 != 0
	exp := int(b[0]&0x7F) - 64
	var mant uint64
	for i := 1; i < 8; i++ {
		mant = mant<<8 | uint64(b[i])
	}
	if mant == 0 {
		return 0
	}
	v := float64(mant) / float64(uint64(1)<<56) * math.Pow(16, float64(exp))
	if neg {
		v = -v
	}
	return v
}

func trimPad(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return b
}
