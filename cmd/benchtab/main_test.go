package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCompareBaselineAllocsOneSided checks that the allocs gate trips on a
// rise beyond the tolerance and never on a cut.
func TestCompareBaselineAllocsOneSided(t *testing.T) {
	base := detectRecord{
		Name: "d1", Polygons: 1000, GraphNodes: 500, GraphEdges: 700,
		CrossingPairs: 10, Shards: 40, Bipartization: 12, Conflicts: 9,
		Allocs: 100_000, SnapshotBytes: 4096,
	}
	raw, err := json.Marshal(detectTrajectory{Designs: []detectRecord{base}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		allocs uint64
		pass   bool
	}{
		{100_000, true},
		{50_000, true},  // halved: progress
		{1_000, true},   // cut 100×: still progress
		{150_000, true}, // at the 1.5× tolerance
		{150_001, false},
		{200_000, false}, // doubled
	} {
		got := base
		got.Allocs = tc.allocs
		err := compareBaseline(&detectTrajectory{Designs: []detectRecord{got}}, path, 1.5)
		if (err == nil) != tc.pass {
			t.Errorf("allocs %d vs baseline %d: err %v, want pass=%v", tc.allocs, base.Allocs, err, tc.pass)
		}
	}
}
