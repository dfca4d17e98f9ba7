package gds

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/layout"
)

func TestReal8RoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 1e-9, 1e-3, 0.25, 1234.5, -6.25e-7, 16, 1.0 / 16}
	for _, v := range vals {
		got := decodeReal8(encodeReal8(v))
		if v == 0 {
			if got != 0 {
				t.Errorf("zero encoded to %g", got)
			}
			continue
		}
		if math.Abs(got-v) > math.Abs(v)*1e-14 {
			t.Errorf("real8 roundtrip %g -> %g", v, got)
		}
	}
}

func TestReal8RoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
		if v == 0 {
			return true
		}
		got := decodeReal8(encodeReal8(v))
		return math.Abs(got-v) <= math.Abs(v)*1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLayoutRoundTrip(t *testing.T) {
	l := layout.New("TESTCHIP")
	l.Add(geom.R(0, 0, 100, 1000))
	l.AddOnLayer(geom.R(-500, -700, -100, -200), 7)
	l.Add(geom.R(1<<30, 0, 1<<30+50, 60))
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "TESTCHIP" {
		t.Errorf("name = %q", got.Name)
	}
	if len(got.Features) != len(l.Features) {
		t.Fatalf("features = %d, want %d", len(got.Features), len(l.Features))
	}
	for i := range l.Features {
		if got.Features[i] != l.Features[i] {
			t.Errorf("feature %d: %+v != %+v", i, got.Features[i], l.Features[i])
		}
	}
}

func TestEmptyLayoutRoundTrip(t *testing.T) {
	l := layout.New("")
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Features) != 0 || got.Name != "TOP" {
		t.Errorf("got %+v", got)
	}
}

func TestCoordinateRangeCheck(t *testing.T) {
	const (
		lo = int64(math.MinInt32)
		hi = int64(math.MaxInt32)
	)
	cases := []struct {
		name string
		rect geom.Rect
		ok   bool
	}{
		{"in-range", geom.Rect{X0: lo, Y0: lo, X1: hi, Y1: hi}, true},
		{"x1 too big", geom.Rect{X0: 0, Y0: 0, X1: hi + 10, Y1: 100}, false},
		{"x0 too small", geom.Rect{X0: lo - 10, Y0: 0, X1: 100, Y1: 100}, false},
		{"y1 too big", geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: hi + 10}, false},
		{"y0 too small", geom.Rect{X0: 0, Y0: lo - 10, X1: 100, Y1: 100}, false},
		// Unnormalized rectangles (X0 > X1, Y0 > Y1): the maximum coordinate
		// sits in X0/Y0 and the minimum in X1/Y1, so a check testing only
		// X0/Y0 against MinInt32 and X1/Y1 against MaxInt32 passes them and
		// the int32() conversions silently wrap.
		{"unnormalized x0 too big", geom.Rect{X0: hi + 10, Y0: 0, X1: 5, Y1: 10}, false},
		{"unnormalized x1 too small", geom.Rect{X0: 5, Y0: 0, X1: lo - 10, Y1: 10}, false},
		{"unnormalized y0 too big", geom.Rect{X0: 0, Y0: hi + 10, X1: 10, Y1: 5}, false},
		{"unnormalized y1 too small", geom.Rect{X0: 0, Y0: 5, X1: 10, Y1: lo - 10}, false},
	}
	for _, tc := range cases {
		l := layout.New("big")
		l.Features = append(l.Features, layout.Feature{Rect: tc.rect})
		var buf bytes.Buffer
		err := Write(&buf, l)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: out-of-range coordinates must be rejected", tc.name)
		}
	}
}

// maxReal8 is the largest magnitude a GDSII real can represent:
// (2^56-1)/2^56 * 16^63.
var maxReal8 = float64(uint64(1)<<56-1) / float64(uint64(1)<<56) * math.Pow(16, 63)

func TestReal8ExtremeValues(t *testing.T) {
	exact := []float64{
		// Extreme in-range exponents round-trip bit-exactly: base-16
		// normalization and the 56-bit mantissa are exact for float64.
		math.Pow(16, 62), -math.Pow(16, 62), math.Pow(16, 63) / 2,
		math.Pow(16, -64), -math.Pow(16, -64), math.Pow(16, -65), // smallest normalized reals
		1e75, -1e75, 5.4e-79,
		maxReal8, -maxReal8,
		math.MaxInt64, 1.5e-60,
	}
	for _, v := range exact {
		if got := decodeReal8(encodeReal8(v)); got != v {
			t.Errorf("round trip %g -> %g", v, got)
		}
	}
	saturate := []struct {
		in, want float64
	}{
		// Above 16^63: saturate to the largest representable real.
		{math.Pow(16, 63), maxReal8},
		{1e308, maxReal8},
		{-1e308, -maxReal8},
		{math.MaxFloat64, maxReal8},
		{math.Inf(1), maxReal8},
		{math.Inf(-1), -maxReal8},
		// Below 16^-65 (including every float64 denormal): flush to zero.
		{math.Pow(16, -66), 0},
		{5e-324, 0},            // smallest positive denormal
		{-5e-324, 0},           //
		{2.2250738585e-308, 0}, // largest denormal neighborhood
		{1e-100, 0},
	}
	for _, tc := range saturate {
		if got := decodeReal8(encodeReal8(tc.in)); got != tc.want {
			t.Errorf("saturating round trip %g -> %g, want %g", tc.in, got, tc.want)
		}
	}
	// NaN flushes to zero rather than emitting a garbage exponent byte.
	if got := decodeReal8(encodeReal8(math.NaN())); got != 0 {
		t.Errorf("NaN encoded to %g, want 0", got)
	}
	// Negative zero encodes as canonical all-zero bytes: GDSII zero carries
	// no sign, and readers must not see a sign bit with a zero mantissa.
	negZero := math.Copysign(0, -1)
	b := encodeReal8(negZero)
	if !bytes.Equal(b, make([]byte, 8)) {
		t.Errorf("negative zero encoded to % x, want all zero", b)
	}
	if got := decodeReal8(b); got != 0 || math.Signbit(got) {
		t.Errorf("negative zero decoded to %g (signbit %v)", got, math.Signbit(got))
	}
	// A denormalized encoding (sign bit set, mantissa zero) decodes to plain
	// zero, and re-encoding it stays canonical.
	if got := decodeReal8([]byte{0xC0, 0, 0, 0, 0, 0, 0, 0}); got != 0 || math.Signbit(got) {
		t.Errorf("signed zero encoding decoded to %g (signbit %v)", got, math.Signbit(got))
	}
}

// FuzzReal8 checks two invariants over arbitrary 8-byte encodings: decoding
// never yields NaN/Inf, and encode∘decode is a projection — after one round
// through encodeReal8 the representation is stable bit-for-bit.
func FuzzReal8(f *testing.F) {
	f.Add(make([]byte, 8))                                        // zero
	f.Add(encodeReal8(1e-9))                                      // the UNITS values
	f.Add(encodeReal8(1e-3))                                      //
	f.Add(encodeReal8(maxReal8))                                  // extremes
	f.Add(encodeReal8(-maxReal8))                                 //
	f.Add(encodeReal8(math.Pow(16, -65)))                         //
	f.Add([]byte{0x00, 0xFF, 0, 0, 0, 0, 0, 0})                   // unnormalized: exp -64
	f.Add([]byte{0x7F, 0, 0, 0, 0, 0, 0, 0x01})                   // tiny mantissa, max exp
	f.Add([]byte{0xC0, 0, 0, 0, 0, 0, 0, 0})                      // signed zero
	f.Add([]byte{0x40, 0x10, 0, 0, 0, 0, 0, 0})                   // 1.0
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // -max
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) != 8 {
			return
		}
		v := decodeReal8(b)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("decodeReal8(% x) = %g", b, v)
		}
		e1 := encodeReal8(v)
		v1 := decodeReal8(e1)
		if math.IsNaN(v1) || math.IsInf(v1, 0) {
			t.Fatalf("re-decode of % x = %g", e1, v1)
		}
		e2 := encodeReal8(v1)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encoding not stable: % x -> %g -> % x -> %g -> % x", b, v, e1, v1, e2)
		}
	})
}

func TestReadErrors(t *testing.T) {
	// Truncated stream.
	l := layout.New("x")
	l.Add(geom.R(0, 0, 10, 10))
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 5, len(full) / 2, len(full) - 3} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	// Garbage.
	if _, err := Read(bytes.NewReader([]byte{0, 8, 0x99, 0, 1, 2, 3, 4})); err == nil {
		t.Error("stream without HEADER must fail")
	}
	// Empty.
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream must fail")
	}
}

func TestNonRectangularBoundaryRejected(t *testing.T) {
	// Handcraft a triangle boundary.
	var buf bytes.Buffer
	w := func(b ...byte) { buf.Write(b) }
	rec := func(rt, dt byte, payload []byte) {
		n := 4 + len(payload)
		w(byte(n>>8), byte(n), rt, dt)
		buf.Write(payload)
	}
	rec(recHEADER, dtInt16, []byte{2, 88})
	units := append(encodeReal8(1e-3), encodeReal8(1e-9)...)
	rec(recUNITS, dtReal8, units)
	rec(recBOUNDARY, dtNone, nil)
	xy := make([]byte, 0, 32)
	pts := []int32{0, 0, 100, 0, 50, 100, 0, 0}
	for _, v := range pts {
		xy = append(xy, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	rec(recXY, dtInt32, xy)
	rec(recENDEL, dtNone, nil)
	rec(recENDLIB, dtNone, nil)
	if _, err := Read(&buf); err == nil {
		t.Fatal("triangle boundary must be rejected")
	}
}

func TestManyFeaturesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := layout.New("MANY")
	for i := 0; i < 5000; i++ {
		x := int64(rng.Intn(1 << 20))
		y := int64(rng.Intn(1 << 20))
		l.AddOnLayer(geom.R(x, y, x+int64(rng.Intn(1000)+1), y+int64(rng.Intn(1000)+1)), rng.Intn(64))
	}
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Features) != 5000 {
		t.Fatalf("features = %d", len(got.Features))
	}
	for i := range l.Features {
		if got.Features[i] != l.Features[i] {
			t.Fatalf("feature %d mismatch", i)
		}
	}
}

// writeRawBoundary emits a minimal GDS stream containing one boundary with
// the given vertices.
func writeRawBoundary(pts []int32) *bytes.Buffer {
	var buf bytes.Buffer
	rec := func(rt, dt byte, payload []byte) {
		n := 4 + len(payload)
		buf.Write([]byte{byte(n >> 8), byte(n), rt, dt})
		buf.Write(payload)
	}
	rec(recHEADER, dtInt16, []byte{2, 88})
	units := append(encodeReal8(1e-3), encodeReal8(1e-9)...)
	rec(recUNITS, dtReal8, units)
	rec(recBGNSTR, dtInt16, make([]byte, 24))
	rec(recSTRNAME, dtString, []byte("RAW\x00"))
	rec(recBOUNDARY, dtNone, nil)
	xy := make([]byte, 0, 4*len(pts))
	for _, v := range pts {
		xy = append(xy, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	rec(recXY, dtInt32, xy)
	rec(recENDEL, dtNone, nil)
	rec(recENDSTR, dtNone, nil)
	rec(recENDLIB, dtNone, nil)
	return &buf
}

func TestRectilinearPolygonBoundaryDecomposed(t *testing.T) {
	// L-shaped boundary: must come back as two rectangles covering it.
	buf := writeRawBoundary([]int32{
		0, 0, 200, 0, 200, 100, 100, 100, 100, 300, 0, 300, 0, 0,
	})
	l, err := Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Features) != 2 {
		t.Fatalf("features = %d, want 2 (decomposed L)", len(l.Features))
	}
	var area int64
	for _, f := range l.Features {
		area += f.Rect.Area()
	}
	if area != 200*100+100*200 {
		t.Fatalf("area = %d", area)
	}
}

func TestPolygonBoundaryCrossShape(t *testing.T) {
	// Plus/cross shape: 3 slabs.
	buf := writeRawBoundary([]int32{
		100, 0, 200, 0, 200, 100, 300, 100, 300, 200,
		200, 200, 200, 300, 100, 300, 100, 200, 0, 200,
		0, 100, 100, 100, 100, 0,
	})
	l, err := Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var area int64
	for _, f := range l.Features {
		area += f.Rect.Area()
	}
	if area != 100*100*5 {
		t.Fatalf("cross area = %d, want %d", area, 100*100*5)
	}
}

// TestWriteStreamPinned pins Write's exact output: the SHA-256 of the
// stream for benchmark design d1 and for an empty layout.
func TestWriteStreamPinned(t *testing.T) {
	d1 := bench.Suite()[0]
	for _, tc := range []struct {
		name string
		l    *layout.Layout
		want string
	}{
		{"d1", bench.Generate(d1.Name, d1.Params), "f201a5a743ee21fa9eadde865c7ec8ce270fe810f8399f41bf6bf7746d52fa8e"},
		{"empty", layout.New(""), "f8f87b595a3ff167e294bb8a3221e374fbe1b58a5371d209460c68f38d1a8d13"},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, tc.l); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: Write stream sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}
