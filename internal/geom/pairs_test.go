package geom

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// bruteForcePairs is Pairs' oracle: every pair i < j, in ascending
// order, whose cell ranges intersect.
func bruteForcePairs(boxes []Rect, cell int64) [][2]int32 {
	type span struct{ x0, y0, x1, y1 int64 }
	sp := make([]span, len(boxes))
	for i, b := range boxes {
		sp[i] = span{floorDiv(b.X0, cell), floorDiv(b.Y0, cell), floorDiv(b.X1, cell), floorDiv(b.Y1, cell)}
	}
	var out [][2]int32
	for i := range sp {
		a := sp[i]
		if a.x1 < a.x0 || a.y1 < a.y0 {
			continue
		}
		for j := i + 1; j < len(sp); j++ {
			b := sp[j]
			if b.x1 < b.x0 || b.y1 < b.y0 {
				continue
			}
			if max(a.x0, b.x0) <= min(a.x1, b.x1) && max(a.y0, b.y0) <= min(a.y1, b.y1) {
				out = append(out, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return out
}

// checkPairs asserts, at one, two and four workers, that Pairs offers keep
// exactly the oracle's candidates, each once, counts them, and returns in
// ascending order the ones keep accepts. keep accepts a fixed pseudo-random
// half of the pairs, so the kept list is tested apart from the candidates.
func checkPairs(t *testing.T, boxes []Rect, cell int64) {
	t.Helper()
	accept := func(i, j int32) bool { return (uint32(i)*2654435761^uint32(j)*40503)&4 == 0 }
	want := bruteForcePairs(boxes, cell)
	var wantKept [][2]int32
	for _, p := range want {
		if accept(p[0], p[1]) {
			wantKept = append(wantKept, p)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		var mu sync.Mutex
		seen := make(map[[2]int32]int)
		kept, candidates := Pairs(boxes, cell, workers, func(i, j int32) bool {
			mu.Lock()
			seen[[2]int32{i, j}]++
			mu.Unlock()
			return accept(i, j)
		})
		if !slices.Equal(kept, wantKept) {
			t.Fatalf("%d boxes, cell %d, %d workers: kept %d pairs, want %d\ngot  %v\nwant %v",
				len(boxes), cell, workers, len(kept), len(wantKept), head(kept), head(wantKept))
		}
		if candidates != len(want) || len(seen) != len(want) {
			t.Fatalf("%d boxes, cell %d, %d workers: %d candidates, %d distinct offered, oracle %d",
				len(boxes), cell, workers, candidates, len(seen), len(want))
		}
		for _, p := range want {
			if seen[p] != 1 {
				t.Fatalf("%d boxes, cell %d, %d workers: pair %v offered %d times, want once",
					len(boxes), cell, workers, p, seen[p])
			}
		}
	}
}

func head(p [][2]int32) [][2]int32 { return p[:min(len(p), 12)] }

// randomBoxes draws n boxes around (ox, oy) within ±spread, with extents
// below maxExt. Some boxes are zero-area, some repeat an earlier box
// exactly, some span many cells and some are inverted (covering no cell).
func randomBoxes(rng *rand.Rand, n int, ox, oy, spread, maxExt int64) []Rect {
	boxes := make([]Rect, 0, n)
	for len(boxes) < n {
		x := ox + rng.Int63n(2*spread+1) - spread
		y := oy + rng.Int63n(2*spread+1) - spread
		switch k := rng.Intn(20); {
		case k == 0 && len(boxes) > 0:
			boxes = append(boxes, boxes[rng.Intn(len(boxes))])
		case k == 1:
			boxes = append(boxes, Rect{x, y, x, y})
		case k == 2:
			boxes = append(boxes, Rect{x, y, x + 8*maxExt, y + 4*maxExt})
		case k == 3:
			boxes = append(boxes, Rect{x, y, x - 1 - rng.Int63n(maxExt), y + rng.Int63n(maxExt)})
		default:
			boxes = append(boxes, Rect{x, y, x + rng.Int63n(maxExt), y + rng.Int63n(maxExt)})
		}
	}
	return boxes
}

// TestForEachPairMatchesOracle checks Pairs' candidates, each offered once,
// and its kept pairs, ascending, on seeded random boxes that reach both
// column gathers and both row orders: dense grids (counting sorts), sparse
// ones (sorted gather; comparison sort of the rows), grids whose cell
// indexes need more than 32 bits, and one spanning ~2^64 cells.
func TestForEachPairMatchesOracle(t *testing.T) {
	cases := []struct {
		name                 string
		n                    int
		cell, spread, ext    int64
		farX, farY, clusters int64
	}{
		{name: "dense", n: 300, cell: 100, spread: 1500, ext: 300},
		{name: "dense-negative", n: 300, cell: 64, spread: 800, ext: 200, farX: -5000, farY: -7000},
		{name: "sparse", n: 300, cell: 100, spread: 400_000, ext: 1000},
		{name: "sparse-clusters", n: 200, cell: 50, spread: 600, ext: 200, farX: 3_000_000, farY: -2_000_000, clusters: 3},
		{name: "cell-index-over-32-bits", n: 200, cell: 1, spread: 40, ext: 12, farX: 1 << 24, farY: 1 << 22, clusters: 3},
		{name: "too-wide-to-pack", n: 200, cell: 1, spread: 40, ext: 12, farX: 1 << 62, farY: 1 << 62, clusters: 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var boxes []Rect
				if c.clusters == 0 {
					boxes = randomBoxes(rng, c.n, c.farX, c.farY, c.spread, c.ext)
				} else {
					// Clusters at the far corners (and the origin) of a
					// huge but mostly empty grid.
					per := c.n / int(c.clusters)
					for _, o := range [][2]int64{{-c.farX, -c.farY}, {0, 0}, {c.farX, c.farY}}[:c.clusters] {
						boxes = append(boxes, randomBoxes(rng, per, o[0], o[1], c.spread, c.ext)...)
					}
					rng.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
				}
				checkPairs(t, boxes, c.cell)
			}
		})
	}
}

// TestForEachPairEdgeCases covers the degenerate inputs: fewer than two
// boxes, boxes that cover no cell, a single shared cell, and identical boxes.
func TestForEachPairEdgeCases(t *testing.T) {
	for _, boxes := range [][]Rect{
		nil,
		{R(0, 0, 10, 10)},
		{{50, 50, 0, 0}, {50, 50, 0, 0}},
		{{50, 50, 0, 0}, R(0, 0, 10, 10), R(3, 3, 3, 3)},
		{R(-1, -1, -1, -1), R(-1, -1, -1, -1), R(-1, -1, -1, -1)},
		{R(0, 0, 1000, 1000), R(0, 0, 1000, 1000), R(999, 999, 2000, 2000)},
	} {
		checkPairs(t, boxes, 16)
	}
}

// FuzzForEachPair checks Pairs against the brute-force oracle on boxes
// decoded from the fuzz input, 6 bytes per box: x and y as int16 scaled by
// 2^shift (so large shifts reach the sorted gather and the comparison sort
// of the rows), and width and height in quarter cells as int8 (negative
// values cover no cell).
func FuzzForEachPair(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 0, 0, 0, 40, 40, 5, 0, 5, 0, 40, 40, 200, 0, 0, 0, 4, 4})
	f.Add(uint8(0), uint8(47), []byte{0, 128, 0, 128, 8, 8, 255, 127, 255, 127, 8, 8, 0, 128, 0, 128, 4, 4})
	f.Add(uint8(6), uint8(20), []byte{1, 0, 2, 0, 250, 12, 1, 0, 2, 0, 12, 250, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, cellLog, shift uint8, data []byte) {
		cell := int64(1) << (cellLog % 16)
		sh := shift % 48
		var boxes []Rect
		for ; len(data) >= 6 && len(boxes) < 256; data = data[6:] {
			x := int64(int16(binary.LittleEndian.Uint16(data))) << sh
			y := int64(int16(binary.LittleEndian.Uint16(data[2:]))) << sh
			w := int64(int8(data[4])) % 32 * cell / 4
			h := int64(int8(data[5])) % 32 * cell / 4
			boxes = append(boxes, Rect{x, y, x + w, y + h})
		}
		checkPairs(t, boxes, cell)
	})
}
