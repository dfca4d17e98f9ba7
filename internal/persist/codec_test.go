package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
)

// sampleState builds a representative SessionState exercising every encoded
// field, including optional sections.
func sampleState(withPrev bool) *SessionState {
	st := &SessionState{
		Rules: layout.Rules{
			CriticalWidth: 150, ShifterWidth: 90, ShifterGap: 120,
			MinShifterSpacing: 200, MinFeatureWidth: 80, MinFeatureSpacing: 280,
			FeatureConflictWeight: 1 << 20,
		},
		Kind:       core.PCG,
		DetectRuns: 7,
		Edits:      3,
		Memo:       MemoDetect | MemoAssign | MemoDRC,
		Inc: core.IncrementalState{
			LayoutName: "snap-π", // non-ASCII name round-trips
			Features: []layout.Feature{
				{Rect: geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 400}, Layer: 0},
				{Rect: geom.Rect{X0: 600, Y0: -20, X1: 700, Y1: 380}, Layer: 2},
			},
			DRCReady: true,
			DRCPairs: [][2]int32{{1, 3}, {2, 7}},
			DRCDirty: []int32{1},
			Stats:    core.IncStats{Edits: 3, Detects: 4, ShardsReused: 9, DRCPairsReused: 5, DRCPairsSolved: 2},
		},
	}
	if withPrev {
		st.Inc.HasPrev = true
		st.Inc.Pairs = []core.PairState{{FeatA: 0, SideA: 1, FeatB: 1, SideB: 0, Deficit: 40}}
		st.Inc.CrossPairs = [][2]int32{{0, 2}, {1, 3}}
		st.Inc.Shards = []core.ShardState{
			{Sig: []byte{4, 2, 0, 0, 2, 0}, Final: []int32{0}, DualNodes: 1},
			{Sig: []byte{8, 6, 0, 0, 200, 1}, Removed: []int32{0}, Bipart: []int32{1, 2}, Final: []int32{2},
				DualNodes: 5, DualEdges: 9, OddFaces: 2, GadgetNodes: 4, GadgetEdges: 7},
		}
		st.Inc.DetStats = core.Stats{GraphNodes: 4, GraphEdges: 3, Shards: 2, TotalTime: 12345}
	}
	return st
}

func TestCodecRoundTrip(t *testing.T) {
	for _, withPrev := range []bool{false, true} {
		st := sampleState(withPrev)
		data := Encode(st)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("withPrev=%v: decode: %v", withPrev, err)
		}
		if !reflect.DeepEqual(st, got) {
			t.Fatalf("withPrev=%v: round trip diverged:\n in  %+v\n out %+v", withPrev, st, got)
		}
		if !bytes.Equal(data, Encode(got)) {
			t.Fatalf("withPrev=%v: re-encode is not byte-identical", withPrev)
		}
	}
}

// reseal recomputes the trailing checksum after tampering with the payload,
// so decode failures exercise the structural validation, not just the CRC.
func reseal(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[len(data)-4:],
		crc32.ChecksumIEEE(data[:len(data)-4]))
	return data
}

func TestCodecRejectsCorruption(t *testing.T) {
	data := Encode(sampleState(true))

	for cut := 0; cut < len(data); cut += 7 {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	for i := 0; i < len(data); i += 11 {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x20
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("bit flip at %d: got %v", i, err)
		}
	}

	// Version skew with a valid checksum must be ErrVersion, so callers can
	// distinguish a snapshot from an older or newer build from damage; a v5
	// snapshot, which stored results per cluster index, is one of them.
	for _, v := range []uint16{Version - 1, Version + 1} {
		skew := append([]byte(nil), data...)
		binary.LittleEndian.PutUint16(skew[len(snapMagic):], v)
		if _, err := Decode(reseal(skew)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", v, err)
		}
	}

	// Trailing garbage with a resealed checksum is still corrupt.
	long := append(append([]byte(nil), data...), 0, 0, 0, 0)
	copy(long[len(long)-4:], long[len(data)-4:len(data)])
	if _, err := Decode(reseal(long)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: got %v, want ErrCorrupt", err)
	}
}

// detectedState is the state of an engine that detected Figure 5, so its
// result store holds real cluster signatures.
func detectedState(f *testing.F) *SessionState {
	r := layout.Default90nm()
	inc, err := core.NewIncremental(bench.Figure5Layout(), r, core.PCG, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := inc.Detect(context.Background()); err != nil {
		f.Fatal(err)
	}
	st := &SessionState{Rules: r, Kind: core.PCG, DetectRuns: 1, Memo: MemoDetect, Inc: *inc.ExportState()}
	if len(st.Inc.Shards) == 0 {
		f.Fatal("figure 5 detection stored no cluster result")
	}
	return st
}

func FuzzSnapshotDecode(f *testing.F) {
	f.Add(Encode(sampleState(false)))
	f.Add(Encode(sampleState(true)))
	f.Add(append([]byte(nil), snapMagic[:]...))
	f.Add([]byte{})
	f.Add(Encode(detectedState(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode byte-identically: with the
		// checksum covering the payload this pins the codec to a canonical
		// form.
		if !bytes.Equal(Encode(st), data) {
			t.Fatalf("decoded snapshot re-encodes differently")
		}
	})
}
