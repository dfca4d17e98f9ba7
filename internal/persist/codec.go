package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/tjoin"
)

// Snapshot wire format (all integers little-endian, fixed width):
//
//	magic   [8]byte  "AAPSMSNP"
//	version uint16   (Version)
//	payload          sections in SessionState field order
//	crc32   uint32   IEEE checksum of everything before it
//
// Slices are a uint32 count followed by the elements; the decoder bounds
// every count by the bytes actually remaining before allocating, so a
// truncated or hostile length field fails cleanly instead of ballooning
// memory. Decode never panics on malformed input (FuzzSnapshotDecode).

var snapMagic = [8]byte{'A', 'A', 'P', 'S', 'M', 'S', 'N', 'P'}

// Version is the current snapshot format version. Bump on any wire change;
// decoders reject other versions with ErrVersion.
//
// Version 2 added the rules tone, the engine's profile name, feature polygon
// groups, the layout hierarchy sidecar, and the hierarchy-reuse counters in
// both stats blocks.
//
// Version 3 removed the downstream-stage caches the session no longer
// keeps: the verification and mask-validation clean generations, the
// correction interval cache, the engine generation, the node survivor map,
// the per-cluster dirty marks, the cached phase coloring, and their eight
// reuse counters.
//
// Version 4 names features by layout index only: the engine's private
// feature and pair numbering, its counters and two always-empty edit lists
// are gone, the DRC cache is index pairs plus dirty indices, overlap pairs
// travel only with the committed detection, and the unused T-join group cap
// and the always-set engine-state presence byte are dropped.
//
// Version 5 drops the hierarchy-fallback counter from both stats blocks:
// identical clusters share a solve by content alone, so no cluster falls
// back, and the two reuse counters keep their slots with the new meaning.
//
// Version 6 stores the committed detection's cluster results by content:
// the cluster count and the per-cluster results, nil markers included, give
// way to the result store, one (signature bytes, result) entry per distinct
// cluster signature in ascending byte order.
//
// Version 7 keeps the wire layout of version 6, but its stored results come
// from a T-join solved without parallel dual edges: of an overlap's two
// equal-weight half-edges the lower-indexed one is now the pick, and the
// gadget counts describe the smaller instance. A version 6 store would hand
// a restore results that differ from a fresh solve.
const Version uint16 = 7

var (
	// ErrCorrupt marks a snapshot that failed structural or checksum
	// validation.
	ErrCorrupt = errors.New("persist: corrupt snapshot")
	// ErrVersion marks a snapshot written by an incompatible format version.
	ErrVersion = errors.New("persist: unsupported snapshot version")
)

// Encode serializes a session state. Encoding is deterministic: the same
// state always yields the same bytes (map-derived slices are sorted by the
// exporters).
func Encode(st *SessionState) []byte {
	var w writer
	w.buf = append(w.buf, snapMagic[:]...)
	w.u16(Version)

	r := st.Rules
	for _, v := range [8]int64{r.CriticalWidth, r.ShifterWidth, r.ShifterGap,
		r.MinShifterSpacing, r.MinFeatureWidth, r.MinFeatureSpacing, r.FeatureConflictWeight,
		int64(r.Tone)} {
		w.i64(v)
	}
	w.u8(uint8(st.Kind))
	w.u8(uint8(st.Opt.TJoin.Method))
	w.u8(uint8(st.Opt.Recheck))
	w.str(st.Profile)

	w.i64(int64(st.DetectRuns))
	w.i64(int64(st.Edits))
	w.u8(st.Memo)
	w.incState(&st.Inc)

	sum := crc32.ChecksumIEEE(w.buf)
	w.u32(sum)
	return w.buf
}

// Validate cheaply checks a snapshot's envelope — length, magic, trailing
// checksum, version — without decoding the payload. It reports ErrCorrupt
// for truncated or bit-flipped data (what a crash mid-write or disk rot
// leaves behind) and ErrVersion for an intact snapshot from another format
// version. The DiskStore startup sweep uses it to tell crash debris (safe to
// delete) from snapshots another build could still read (kept).
func Validate(data []byte) error {
	if len(data) < len(snapMagic)+2+4 {
		return fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	var magic [8]byte
	copy(magic[:], body)
	if magic != snapMagic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(body[len(snapMagic):]); v != Version {
		return fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, v, Version)
	}
	return nil
}

// Decode parses a snapshot, verifying magic, version and checksum. Errors
// wrap ErrVersion for a version mismatch and ErrCorrupt for everything else.
func Decode(data []byte) (*SessionState, error) {
	if err := Validate(data); err != nil {
		return nil, err
	}
	rd := &reader{buf: data[:len(data)-4], pos: len(snapMagic) + 2}
	st := &SessionState{}
	st.Rules = layout.Rules{
		CriticalWidth:         rd.i64(),
		ShifterWidth:          rd.i64(),
		ShifterGap:            rd.i64(),
		MinShifterSpacing:     rd.i64(),
		MinFeatureWidth:       rd.i64(),
		MinFeatureSpacing:     rd.i64(),
		FeatureConflictWeight: rd.i64(),
		Tone:                  layout.Tone(rd.i64()),
	}
	st.Kind = core.GraphKind(rd.u8())
	st.Opt.TJoin.Method = tjoin.Method(rd.u8())
	st.Opt.Recheck = core.RecheckMode(rd.u8())
	st.Profile = rd.str()

	st.DetectRuns = int(rd.i64())
	st.Edits = int(rd.i64())
	st.Memo = rd.u8()
	rd.incState(&st.Inc)
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.pos != len(rd.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rd.buf)-rd.pos)
	}
	return st, nil
}

// ---- writer ----

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) i32s(xs []int32) {
	w.u32(uint32(len(xs)))
	for _, x := range xs {
		w.i32(x)
	}
}

func (w *writer) incState(inc *core.IncrementalState) {
	w.str(inc.LayoutName)
	w.u32(uint32(len(inc.Features)))
	for _, f := range inc.Features {
		w.i64(f.Rect.X0)
		w.i64(f.Rect.Y0)
		w.i64(f.Rect.X1)
		w.i64(f.Rect.Y1)
		w.i64(int64(f.Layer))
		w.i64(int64(f.Group))
	}
	w.u32(uint32(len(inc.HierCells)))
	for _, c := range inc.HierCells {
		w.str(c)
	}
	w.i32s(inc.HierPlacementCell)
	w.i32s(inc.HierFeatureInstance)

	w.bool(inc.HasPrev)
	if inc.HasPrev {
		w.u32(uint32(len(inc.Pairs)))
		for _, p := range inc.Pairs {
			w.i32(p.FeatA)
			w.u8(p.SideA)
			w.i32(p.FeatB)
			w.u8(p.SideB)
			w.i64(p.Deficit)
		}
		w.u32(uint32(len(inc.CrossPairs)))
		for _, p := range inc.CrossPairs {
			w.i32(p[0])
			w.i32(p[1])
		}
		w.u32(uint32(len(inc.Shards)))
		for _, sh := range inc.Shards {
			w.str(string(sh.Sig))
			w.i32s(sh.Removed)
			w.i32s(sh.Bipart)
			w.i32s(sh.Final)
			for _, v := range [5]int{sh.DualNodes, sh.DualEdges, sh.OddFaces, sh.GadgetNodes, sh.GadgetEdges} {
				w.i64(int64(v))
			}
		}
		w.detStats(inc.DetStats)
	}

	w.bool(inc.DRCReady)
	w.u32(uint32(len(inc.DRCPairs)))
	for _, p := range inc.DRCPairs {
		w.i32(p[0])
		w.i32(p[1])
	}
	w.i32s(inc.DRCDirty)
	w.incStats(inc.Stats)
}

func (w *writer) detStats(s core.Stats) {
	for _, v := range [13]int{s.GraphNodes, s.GraphEdges, s.CrossingPairs,
		s.DualNodes, s.DualEdges, s.OddFaces, s.GadgetNodes, s.GadgetEdges,
		s.Shards, s.ReusedShards, s.LargestShardEdges,
		s.HierReusedShards, s.HierSolvedShards} {
		w.i64(int64(v))
	}
	for _, d := range [6]time.Duration{s.CrossTime, s.PlanarTime, s.EmbedTime,
		s.MatchTime, s.RecheckTime, s.TotalTime} {
		w.i64(int64(d))
	}
}

func (w *writer) incStats(s core.IncStats) {
	for _, v := range [10]int{s.Edits, s.Detects, s.FullDetects,
		s.ShardsReused, s.ShardsSolved, s.FallbackDirty,
		s.HierClustersReused, s.HierClustersSolved,
		s.DRCPairsReused, s.DRCPairsSolved} {
		w.i64(int64(v))
	}
}

// ---- reader ----

// reader consumes the payload with sticky-error semantics: after the first
// structural problem every accessor returns zero values, so decode paths
// need no per-read error plumbing and malformed input cannot panic.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.fail("truncated at offset %d (want %d more bytes)", r.pos, n)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }
func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) bool() bool { return r.u8() != 0 }

// sliceCap pre-sizes a decode target, keeping zero-length slices nil so a
// round trip through the codec is DeepEqual-exact, not just semantically
// equal.
func sliceCap[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// sliceLen reads a count and bounds it by the bytes remaining given a
// minimum element size, so hostile counts cannot drive huge allocations.
func (r *reader) sliceLen(minElem int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*minElem > len(r.buf)-r.pos {
		r.fail("slice of %d elements exceeds %d remaining bytes", n, len(r.buf)-r.pos)
		return 0
	}
	return n
}

func (r *reader) str() string {
	n := r.sliceLen(1)
	return string(r.bytes(n))
}

func (r *reader) i32s() []int32 {
	n := r.sliceLen(4)
	out := sliceCap[int32](n)
	for i := 0; i < n; i++ {
		out = append(out, r.i32())
	}
	return out
}

func (r *reader) incState(inc *core.IncrementalState) {
	inc.LayoutName = r.str()
	nf := r.sliceLen(6 * 8)
	inc.Features = sliceCap[layout.Feature](nf)
	for i := 0; i < nf; i++ {
		var f layout.Feature
		f.Rect.X0 = r.i64()
		f.Rect.Y0 = r.i64()
		f.Rect.X1 = r.i64()
		f.Rect.Y1 = r.i64()
		f.Layer = int(r.i64())
		f.Group = int(r.i64())
		inc.Features = append(inc.Features, f)
	}
	nhc := r.sliceLen(4)
	inc.HierCells = sliceCap[string](nhc)
	for i := 0; i < nhc; i++ {
		inc.HierCells = append(inc.HierCells, r.str())
	}
	inc.HierPlacementCell = r.i32s()
	inc.HierFeatureInstance = r.i32s()

	inc.HasPrev = r.bool()
	if inc.HasPrev {
		np := r.sliceLen(4 + 1 + 4 + 1 + 8)
		inc.Pairs = sliceCap[core.PairState](np)
		for i := 0; i < np; i++ {
			var p core.PairState
			p.FeatA = r.i32()
			p.SideA = r.u8()
			p.FeatB = r.i32()
			p.SideB = r.u8()
			p.Deficit = r.i64()
			inc.Pairs = append(inc.Pairs, p)
		}
		nc := r.sliceLen(8)
		inc.CrossPairs = sliceCap[[2]int32](nc)
		for i := 0; i < nc; i++ {
			inc.CrossPairs = append(inc.CrossPairs, [2]int32{r.i32(), r.i32()})
		}
		ns := r.sliceLen(4*4 + 5*8)
		inc.Shards = sliceCap[core.ShardState](ns)
		for i := 0; i < ns; i++ {
			var sh core.ShardState
			sh.Sig = []byte(r.str())
			sh.Removed = r.i32s()
			sh.Bipart = r.i32s()
			sh.Final = r.i32s()
			sh.DualNodes = int(r.i64())
			sh.DualEdges = int(r.i64())
			sh.OddFaces = int(r.i64())
			sh.GadgetNodes = int(r.i64())
			sh.GadgetEdges = int(r.i64())
			inc.Shards = append(inc.Shards, sh)
		}
		inc.DetStats = r.detStats()
	}

	inc.DRCReady = r.bool()
	ndp := r.sliceLen(8)
	inc.DRCPairs = sliceCap[[2]int32](ndp)
	for i := 0; i < ndp; i++ {
		inc.DRCPairs = append(inc.DRCPairs, [2]int32{r.i32(), r.i32()})
	}
	inc.DRCDirty = r.i32s()
	inc.Stats = r.incStats()
}

func (r *reader) detStats() core.Stats {
	var s core.Stats
	for _, p := range [13]*int{&s.GraphNodes, &s.GraphEdges, &s.CrossingPairs,
		&s.DualNodes, &s.DualEdges, &s.OddFaces, &s.GadgetNodes, &s.GadgetEdges,
		&s.Shards, &s.ReusedShards, &s.LargestShardEdges,
		&s.HierReusedShards, &s.HierSolvedShards} {
		*p = int(r.i64())
	}
	for _, p := range [6]*time.Duration{&s.CrossTime, &s.PlanarTime, &s.EmbedTime,
		&s.MatchTime, &s.RecheckTime, &s.TotalTime} {
		*p = time.Duration(r.i64())
	}
	return s
}

func (r *reader) incStats() core.IncStats {
	var s core.IncStats
	for _, p := range [10]*int{&s.Edits, &s.Detects, &s.FullDetects,
		&s.ShardsReused, &s.ShardsSolved, &s.FallbackDirty,
		&s.HierClustersReused, &s.HierClustersSolved,
		&s.DRCPairsReused, &s.DRCPairsSolved} {
		*p = int(r.i64())
	}
	return s
}
