package geom

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"

	"repro/internal/fanout"
)

// Pairs returns, in ascending order, every pair (i, j) with i < j of boxes
// whose cell ranges on a uniform grid of the given cell edge length (nm)
// intersect and for which keep(i, j) reports true, together with the number
// of candidate pairs offered to keep. Box i covers the cells
// floor(X0/cell)..floor(X1/cell) by floor(Y0/cell)..floor(Y1/cell); a box
// with X1 < X0 or Y1 < Y0 covers none. The candidates are a superset of the
// true hits of a proximity or crossing sweep, which keep filters; cell should
// be on the order of the typical box extent, and a poor choice affects only
// performance. cell must be positive and len(boxes) must fit in an int32.
//
// keep is called exactly once per candidate, in no particular order, and
// from up to workers goroutines at once, so it must be a pure predicate:
// callers build their payload in one ordered pass over the kept pairs.
//
// Each box is entered once into every grid column its cell range spans, by a
// counting sort over the columns (or, when the column span dwarfs the entry
// count, a sort of the (column, box) entries), with each column's boxes in
// order of lowest cell row. A column is swept bottom to top, offering each
// box the boxes above it whose lowest row it reaches. A pair is offered only
// in its reference column, the larger of the two boxes' lowest columns, which
// both ranges contain, so no pair is offered twice and only the kept pairs
// are sorted. With workers > 1 the columns are split into contiguous ranges
// of about equal entry count, swept concurrently.
func Pairs(boxes []Rect, cell int64, workers int, keep func(i, j int32) bool) (kept [][2]int32, candidates int) {
	if cell <= 0 {
		panic("geom: grid cell size must be positive")
	}
	if len(boxes) > math.MaxInt32 {
		panic("geom: too many boxes for int32 ids")
	}
	s := pairSweep{idBits: bits.Len32(uint32(max(len(boxes), 1) - 1)), spans: make([]cellSpan, len(boxes))}
	order, entries, minX, maxX := s.spanBoxes(boxes, cell)
	if len(order) < 2 {
		return nil, 0
	}
	var cols []column
	if span := uint64(maxX) - uint64(minX); span < 4*uint64(entries) && entries < math.MaxInt32 {
		cols = s.gatherCounting(order, entries, minX, int(span)+1)
	} else {
		cols = s.gatherSorted(order, entries)
	}

	parts := splitColumns(cols, workers)
	found := make([][]uint64, len(parts)-1)
	counts := make([]int, len(parts)-1)
	sweep := func(p int) {
		found[p], counts[p] = s.sweep(cols[parts[p]:parts[p+1]], keep)
	}
	if len(found) == 1 {
		sweep(0)
	} else {
		//aapsmvet:allow ctxflow the sweep is pure CPU work that is never cancelled; fanout only bounds its goroutines
		_ = fanout.Run(context.Background(), len(found), len(found), func(_ context.Context, p int) error {
			sweep(p)
			return nil
		})
	}
	keys := found[0]
	for p, f := range found[1:] {
		keys = append(keys, f...)
		counts[0] += counts[p+1]
	}
	if len(keys) == 0 {
		return nil, counts[0]
	}
	keys = radixSort(keys, 2*s.idBits)
	kept = make([][2]int32, len(keys))
	idMask := uint64(1)<<s.idBits - 1
	for k, p := range keys {
		kept[k] = [2]int32{int32(p >> s.idBits), int32(p & idMask)}
	}
	return kept, counts[0]
}

// cellSpan is a box's inclusive range of cell columns and rows.
type cellSpan struct{ x0, y0, x1, y1 int64 }

// covers reports whether the span covers any cell.
func (c cellSpan) covers() bool { return c.x0 <= c.x1 && c.y0 <= c.y1 }

// column is one grid column's run ids[lo:hi] of box ids, in order of lowest
// cell row.
type column struct {
	x      int64
	lo, hi int
}

// pairSweep holds what Pairs' stages share: each box's cell span and the
// box ids of every column with at least two boxes, concatenated.
type pairSweep struct {
	idBits int
	spans  []cellSpan
	ids    []int32
}

// spanBoxes fills s.spans and returns the ids of the boxes that cover a
// cell, ordered by (lowest row, id), their summed column counts, and the
// lowest and highest occupied column.
func (s *pairSweep) spanBoxes(boxes []Rect, cell int64) (order []int32, entries int, minX, maxX int64) {
	minX, minY := int64(math.MaxInt64), int64(math.MaxInt64)
	maxX, maxY := int64(math.MinInt64), int64(math.MinInt64)
	n := 0
	for i, b := range boxes {
		c := cellSpan{floorDiv(b.X0, cell), floorDiv(b.Y0, cell), floorDiv(b.X1, cell), floorDiv(b.Y1, cell)}
		s.spans[i] = c
		if !c.covers() {
			continue
		}
		n++
		minX, minY = min(minX, c.x0), min(minY, c.y0)
		maxX, maxY = max(maxX, c.x1), max(maxY, c.y1)
		entries += int(uint64(c.x1) - uint64(c.x0) + 1)
	}
	if n < 2 {
		return nil, 0, 0, 0
	}

	// Order the live boxes by lowest row: a counting sort over the row span
	// when it is dense, else a comparison sort.
	if rows := uint64(maxY) - uint64(minY); rows < 4*uint64(n) {
		off := make([]int32, rows+2)
		for _, c := range s.spans {
			if c.covers() {
				off[c.y0-minY+1]++
			}
		}
		for y := 1; y < len(off); y++ {
			off[y] += off[y-1]
		}
		order = make([]int32, n)
		for i, c := range s.spans {
			if c.covers() {
				order[off[c.y0-minY]] = int32(i)
				off[c.y0-minY]++
			}
		}
	} else {
		order = make([]int32, 0, n)
		for i, c := range s.spans {
			if c.covers() {
				order = append(order, int32(i))
			}
		}
		slices.SortFunc(order, func(a, b int32) int {
			return cmp.Or(cmp.Compare(s.spans[a].y0, s.spans[b].y0), cmp.Compare(a, b))
		})
	}
	return order, entries, minX, maxX
}

// gatherCounting buckets the boxes by column with one counting sort over
// the ncols columns from minX, visiting them in row order so each column
// stays in it.
func (s *pairSweep) gatherCounting(order []int32, entries int, minX int64, ncols int) []column {
	off := make([]int32, ncols+1)
	for _, id := range order {
		c := s.spans[id]
		for x := c.x0 - minX; x <= c.x1-minX; x++ {
			off[x+1]++
		}
	}
	for x := 1; x <= ncols; x++ {
		off[x] += off[x-1]
	}
	s.ids = make([]int32, entries)
	for _, id := range order {
		c := s.spans[id]
		for x := c.x0 - minX; x <= c.x1-minX; x++ {
			s.ids[off[x]] = id
			off[x]++
		}
	}
	// off[x] is now the end of column x and so the start of column x+1.
	var cols []column
	lo := 0
	for x, hi := range off[:ncols] {
		if int(hi)-lo > 1 {
			cols = append(cols, column{minX + int64(x), lo, int(hi)})
		}
		lo = int(hi)
	}
	return cols
}

// gatherSorted buckets the boxes by column with a stable sort of their
// (column, box) entries, for column spans too sparse or too wide to count.
func (s *pairSweep) gatherSorted(order []int32, entries int) []column {
	type entry struct {
		x  int64
		id int32
	}
	es := make([]entry, 0, entries)
	for _, id := range order {
		c := s.spans[id]
		for x := c.x0; ; x++ {
			es = append(es, entry{x, id})
			if x == c.x1 {
				break // x+1 would wrap at the top of the int64 range
			}
		}
	}
	slices.SortStableFunc(es, func(a, b entry) int { return cmp.Compare(a.x, b.x) })
	s.ids = make([]int32, len(es))
	var cols []column
	for lo := 0; lo < len(es); {
		hi := lo + 1
		for hi < len(es) && es[hi].x == es[lo].x {
			hi++
		}
		if hi-lo > 1 {
			cols = append(cols, column{es[lo].x, lo, hi})
		}
		lo = hi
	}
	for k, e := range es {
		s.ids[k] = e.id
	}
	return cols
}

// splitColumns returns the bounds of at most workers contiguous column
// ranges of about equal entry count: range p is cols[b[p]:b[p+1]].
func splitColumns(cols []column, workers int) []int {
	parts := max(1, min(workers, len(cols)))
	b := make([]int, 1, parts+1)
	if parts > 1 {
		total := 0
		for _, c := range cols {
			total += c.hi - c.lo
		}
		sum := 0
		for k, c := range cols {
			sum += c.hi - c.lo
			if sum*parts >= total*len(b) && len(b) < parts && k+1 < len(cols) {
				b = append(b, k+1)
			}
		}
	}
	return append(b, len(cols))
}

// sweep offers keep every pair of the given columns whose reference column
// it is, and returns the kept pairs packed as i<<idBits | j with the number
// offered. Within a column the boxes ascend by lowest row, so the boxes
// whose rows meet box a's are exactly those after it up to the first that
// starts above a's highest row.
func (s *pairSweep) sweep(cols []column, keep func(i, j int32) bool) (kept []uint64, offered int) {
	for _, c := range cols {
		run := s.ids[c.lo:c.hi]
		for a, i := range run {
			si := s.spans[i]
			starts := si.x0 == c.x
			for _, j := range run[a+1:] {
				sj := s.spans[j]
				if sj.y0 > si.y1 {
					break
				}
				if !starts && sj.x0 != c.x {
					continue
				}
				lo, hi := min(i, j), max(i, j)
				offered++
				if keep(lo, hi) {
					kept = append(kept, uint64(lo)<<s.idBits|uint64(hi))
				}
			}
		}
	}
	return kept, offered
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
