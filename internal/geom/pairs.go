package geom

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// ForEachPair calls fn(i, j) with i < j exactly once for every pair of boxes
// whose cell ranges on a uniform grid of the given cell edge length (nm)
// intersect, in ascending (i, j) order. Box i covers the cells
// floor(X0/cell)..floor(X1/cell) by floor(Y0/cell)..floor(Y1/cell); a box
// with X1 < X0 or Y1 < Y0 covers none. The pairs are a superset of the true
// hits of a proximity or crossing sweep and must be filtered by the caller;
// cell should be on the order of the typical box extent, and a poor choice
// affects only performance. cell must be positive and len(boxes) must fit in
// an int32.
//
// Each box's cell range is computed once and every (cell, box) entry is
// bucketed by a dense cell index: by one counting sort over all cells when
// the grid has at most four cells per entry, else by radix-sorting the
// entries packed as (cell, box) uint64 keys. A pair is reported only from its
// reference cell — the cell at the larger of the two boxes' lowest columns
// and the larger of their lowest rows, which both ranges contain — so no
// duplicate pair is ever generated, and only the unique pairs are sorted.
func ForEachPair(boxes []Rect, cell int64, fn func(i, j int32)) {
	if cell <= 0 {
		panic("geom: grid cell size must be positive")
	}
	if len(boxes) > math.MaxInt32 {
		panic("geom: too many boxes for int32 ids")
	}
	if len(boxes) < 2 {
		return
	}
	// Cell ranges, stored relative to the lowest occupied column and row so
	// that they are non-negative and order-preserving as uint64.
	s := pairSweep{idBits: bits.Len32(uint32(len(boxes) - 1)), rel: make([]cellRange, len(boxes))}
	minX, minY := int64(math.MaxInt64), int64(math.MaxInt64)
	maxX, maxY := int64(math.MinInt64), int64(math.MinInt64)
	entries := 0
	for i, b := range boxes {
		x0, y0 := floorDiv(b.X0, cell), floorDiv(b.Y0, cell)
		x1, y1 := floorDiv(b.X1, cell), floorDiv(b.Y1, cell)
		if x1 < x0 || y1 < y0 {
			s.rel[i] = noCells
			continue
		}
		s.rel[i] = cellRange{uint64(x0), uint64(y0), uint64(x1), uint64(y1)}
		minX, minY = min(minX, x0), min(minY, y0)
		maxX, maxY = max(maxX, x1), max(maxY, y1)
		entries += int((uint64(x1) - uint64(x0) + 1) * (uint64(y1) - uint64(y0) + 1))
	}
	if entries < 2 {
		return
	}
	for i, c := range s.rel {
		if c != noCells {
			s.rel[i] = cellRange{c.x0 - uint64(minX), c.y0 - uint64(minY), c.x1 - uint64(minX), c.y1 - uint64(minY)}
		}
	}
	s.pairs = make([]uint64, 0, len(boxes))

	// A dense cell index d = x*h + y and a box id must share one uint64;
	// otherwise (a grid spanning ~2^64 cells) sort the (x, y, id) entries.
	w := uint64(maxX) - uint64(minX) + 1
	h := uint64(maxY) - uint64(minY) + 1
	hi, ncells := bits.Mul64(w, h)
	keyBits := bits.Len64(ncells-1) + s.idBits
	switch {
	case w == 0 || h == 0 || hi != 0 || keyBits > 64:
		s.sweepWide(entries)
	case ncells <= 4*uint64(entries) && entries < math.MaxInt32:
		s.sweepCounting(h, int(ncells), entries)
	default:
		s.sweepPacked(h, keyBits, entries)
	}
	s.pairs = radixSort(s.pairs, 2*s.idBits)
	idMask := uint64(1)<<s.idBits - 1
	for _, p := range s.pairs {
		fn(int32(p>>s.idBits), int32(p&idMask))
	}
}

type cellRange struct{ x0, y0, x1, y1 uint64 }

// noCells is the range of a box that covers no cell.
var noCells = cellRange{x0: 1}

// pairSweep holds the state shared by ForEachPair's three bucketing
// strategies: the relative cell range per box, per-run scratch, and the
// unique pairs found so far, packed as i<<idBits | j.
type pairSweep struct {
	idBits int
	rel    []cellRange
	ids    []int32
	flags  []uint8
	pairs  []uint64
}

// sweepCounting buckets entries by dense cell index with a counting sort.
// Boxes are placed in ascending order, so each bucket's ids ascend.
func (s *pairSweep) sweepCounting(h uint64, ncells, entries int) {
	off := make([]int32, ncells+1)
	for _, c := range s.rel {
		for x := c.x0; x <= c.x1; x++ {
			for y := c.y0; y <= c.y1; y++ {
				off[x*h+y+1]++
			}
		}
	}
	for d := 1; d <= ncells; d++ {
		off[d] += off[d-1]
	}
	ids := make([]int32, entries)
	for i, c := range s.rel {
		for x := c.x0; x <= c.x1; x++ {
			for y := c.y0; y <= c.y1; y++ {
				d := x*h + y
				ids[off[d]] = int32(i)
				off[d]++
			}
		}
	}
	// off[d] is now the end of bucket d and so the start of bucket d+1.
	start := int32(0)
	for d := 0; d < ncells; d++ {
		end := off[d]
		if end-start > 1 {
			s.emitRun(uint64(d)/h, uint64(d)%h, ids[start:end])
		}
		start = end
	}
}

// sweepPacked radix-sorts (dense cell index, id) keys packed into one
// uint64, for grids too sparse to bucket every cell.
func (s *pairSweep) sweepPacked(h uint64, keyBits, entries int) {
	keys := make([]uint64, 0, entries)
	for i, c := range s.rel {
		for x := c.x0; x <= c.x1; x++ {
			for y := c.y0; y <= c.y1; y++ {
				keys = append(keys, (x*h+y)<<s.idBits|uint64(i))
			}
		}
	}
	keys = radixSort(keys, keyBits)
	idMask := uint64(1)<<s.idBits - 1
	for lo := 0; lo < len(keys); {
		d := keys[lo] >> s.idBits
		hi := lo + 1
		for hi < len(keys) && keys[hi]>>s.idBits == d {
			hi++
		}
		if hi-lo > 1 {
			s.ids = s.ids[:0]
			for _, k := range keys[lo:hi] {
				s.ids = append(s.ids, int32(k&idMask))
			}
			s.emitRun(d/h, d%h, s.ids)
		}
		lo = hi
	}
}

// sweepWide sorts (x, y, id) entries directly, for grids whose dense cell
// index and box id do not fit one uint64 together.
func (s *pairSweep) sweepWide(entries int) {
	type entry struct {
		x, y uint64
		id   int32
	}
	es := make([]entry, 0, entries)
	for i, c := range s.rel {
		for x := c.x0; x <= c.x1; x++ {
			for y := c.y0; y <= c.y1; y++ {
				es = append(es, entry{x, y, int32(i)})
				if y == c.y1 {
					break // y+1 would wrap at the top of the uint64 range
				}
			}
			if x == c.x1 {
				break
			}
		}
	}
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.x, b.x), cmp.Compare(a.y, b.y), cmp.Compare(a.id, b.id))
	})
	for lo := 0; lo < len(es); {
		hi := lo + 1
		for hi < len(es) && es[hi].x == es[lo].x && es[hi].y == es[lo].y {
			hi++
		}
		if hi-lo > 1 {
			s.ids = s.ids[:0]
			for _, e := range es[lo:hi] {
				s.ids = append(s.ids, e.id)
			}
			s.emitRun(es[lo].x, es[lo].y, s.ids)
		}
		lo = hi
	}
}

// emitRun records the pairs of one cell's ascending ids whose reference cell
// is (x, y). Both boxes contain the cell, so their lower cell column and row
// are at most x and y, and the larger of each equals x (y) iff one of them
// does.
func (s *pairSweep) emitRun(x, y uint64, ids []int32) {
	s.flags = s.flags[:0]
	for _, id := range ids {
		c := s.rel[id]
		var f uint8
		if c.x0 == x {
			f = 1
		}
		if c.y0 == y {
			f |= 2
		}
		s.flags = append(s.flags, f)
	}
	for a, i := range ids {
		fa := s.flags[a]
		hi := uint64(i) << s.idBits
		if fa == 3 {
			for _, j := range ids[a+1:] {
				s.pairs = append(s.pairs, hi|uint64(j))
			}
			continue
		}
		for b, j := range ids[a+1:] {
			if fa|s.flags[a+1+b] == 3 {
				s.pairs = append(s.pairs, hi|uint64(j))
			}
		}
	}
}

// radixSort sorts keys whose set bits all lie below keyBits with an LSD
// radix sort (a stable counting sort per 11-bit digit, skipping digits every
// key shares) and returns the sorted slice, which is keys or a scratch copy.
func radixSort(keys []uint64, keyBits int) []uint64 {
	const digitBits = 11
	const digitMask = 1<<digitBits - 1
	var buf []uint64
	var count [1 << digitBits]int
	for shift := 0; shift < keyBits && len(keys) > 1; shift += digitBits {
		clear(count[:])
		for _, k := range keys {
			count[k>>shift&digitMask]++
		}
		if count[keys[0]>>shift&digitMask] == len(keys) {
			continue
		}
		sum := 0
		for d, n := range count {
			count[d] = sum
			sum += n
		}
		if buf == nil {
			buf = make([]uint64, len(keys))
		}
		for _, k := range keys {
			d := k >> shift & digitMask
			buf[count[d]] = k
			count[d]++
		}
		keys, buf = buf, keys
	}
	return keys
}
