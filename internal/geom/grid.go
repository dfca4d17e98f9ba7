package geom

import (
	"slices"
	"sort"
)

// Grid is a uniform spatial hash over int64 space that the incremental
// detection engine keeps alive across edits to find the items near a changed
// feature. Items are referenced by dense integer ids supplied by the caller.
// One-shot sweeps that enumerate every candidate pair use Pairs, the
// column-strip kernel, instead.
//
// The entry set is kept as a sorted (cell, id) base array plus pending
// insert/remove logs; the first query after a mutation sorts only the
// pending logs and folds them into the base in one merge pass. A bulk load
// (insert everything, then query) therefore pays a single sort at the first
// query, and a batch of k edits costs O(k log k + n) instead of a re-sort of
// the whole log.
//
// The zero Grid is not usable; construct with NewGrid. Cell size should be
// on the order of the query distance; a poor choice affects only
// performance, never correctness.
type Grid struct {
	cell int64
	base []gridEntry // sorted by (key, id)
	adds []gridEntry // pending inserts, unsorted
	dels []gridEntry // pending removes, unsorted
}

type gridEntry struct {
	key uint64 // packed (cx, cy)
	id  int32
}

func packCell(cx, cy int32) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// NewGrid creates a grid with the given cell edge length in nm.
// cell must be positive.
func NewGrid(cell int64) *Grid {
	if cell <= 0 {
		panic("geom: grid cell size must be positive")
	}
	return &Grid{cell: cell}
}

func (g *Grid) cellRange(r Rect) (cx0, cy0, cx1, cy1 int32) {
	return int32(floorDiv(r.X0, g.cell)), int32(floorDiv(r.Y0, g.cell)),
		int32(floorDiv(r.X1, g.cell)), int32(floorDiv(r.Y1, g.cell))
}

// Insert registers id with bounding box r in every cell it overlaps.
func (g *Grid) Insert(id int32, r Rect) {
	cx0, cy0, cx1, cy1 := g.cellRange(r)
	for cx := cx0; cx <= cx1; cx++ {
		for cy := cy0; cy <= cy1; cy++ {
			g.adds = append(g.adds, gridEntry{packCell(cx, cy), id})
		}
	}
	g.maybeCompact()
}

// Remove unregisters an id previously Inserted with the same bounding box r.
// Each Remove cancels exactly one matching Insert; removing an (id, r) pair
// that was never inserted is a no-op for cells no matching entry occupies.
func (g *Grid) Remove(id int32, r Rect) {
	cx0, cy0, cx1, cy1 := g.cellRange(r)
	for cx := cx0; cx <= cx1; cx++ {
		for cy := cy0; cy <= cy1; cy++ {
			g.dels = append(g.dels, gridEntry{packCell(cx, cy), id})
		}
	}
	g.maybeCompact()
}

// compactMinPending is the pending-log size below which mutations never
// trigger a compaction.
const compactMinPending = 1 << 10

// maybeCompact folds the pending logs into the base once they grow past a
// threshold while removes are pending. Without it a long-lived grid mutated
// in Insert/Remove cycles that are never interleaved with queries — exactly
// what an idle session's edit stream looks like — accumulates an unbounded
// log: cancelled pairs are only discarded by build. Folding when the log
// reaches a fraction of the base keeps memory proportional to the live entry
// count and amortizes the O(base) merge over the edits that filled the log.
// A log of inserts alone holds only live entries, so it is left for the
// first query to sort once; folding it early would re-merge the base again
// and again during a bulk load.
func (g *Grid) maybeCompact() {
	pending := len(g.adds) + len(g.dels)
	if len(g.dels) > 0 && pending >= compactMinPending && pending >= len(g.base)/4 {
		g.build()
	}
}

func entryLess(a, b gridEntry) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return int(a.id) - int(b.id)
}

// build folds the pending insert/remove logs into the sorted base so each
// cell's ids form one contiguous run (ties by id for determinism).
func (g *Grid) build() {
	if len(g.adds) == 0 && len(g.dels) == 0 {
		return
	}
	slices.SortFunc(g.adds, entryLess)
	if len(g.dels) == 0 && len(g.base) == 0 {
		// Common one-shot path: the sorted adds are the base.
		g.base, g.adds = g.adds, nil
		return
	}
	slices.SortFunc(g.dels, entryLess)
	merged := make([]gridEntry, 0, len(g.base)+len(g.adds))
	bi, ai, di := 0, 0, 0
	next := func() (gridEntry, bool) {
		switch {
		case bi < len(g.base) && (ai >= len(g.adds) || entryLess(g.base[bi], g.adds[ai]) <= 0):
			e := g.base[bi]
			bi++
			return e, true
		case ai < len(g.adds):
			e := g.adds[ai]
			ai++
			return e, true
		}
		return gridEntry{}, false
	}
	for {
		e, ok := next()
		if !ok {
			break
		}
		// Skip removes with no matching live entry, then let each remaining
		// remove cancel one identical live entry.
		for di < len(g.dels) && entryLess(g.dels[di], e) < 0 {
			di++
		}
		if di < len(g.dels) && g.dels[di] == e {
			di++
			continue
		}
		merged = append(merged, e)
	}
	g.base, g.adds, g.dels = merged, nil, nil
}

// cellRun returns the [lo, hi) entry range of the cell, via binary search.
func (g *Grid) cellRun(key uint64) (int, int) {
	lo := sort.Search(len(g.base), func(i int) bool { return g.base[i].key >= key })
	hi := lo
	for hi < len(g.base) && g.base[hi].key == key {
		hi++
	}
	return lo, hi
}

// Query calls fn once per distinct id whose inserted bounds overlap a cell
// touched by r. The same id is never reported twice per call; candidates are
// a superset of true hits and must be filtered by the caller. seen is scratch
// storage reused across calls when non-nil: it must have capacity for all
// ids and be all-false on entry (Query resets it before returning). When
// seen is nil, ids are deduplicated internally.
func (g *Grid) Query(r Rect, seen []bool, fn func(id int32)) {
	g.build()
	cx0, cy0, cx1, cy1 := g.cellRange(r)
	var touched []int32
	var local map[int32]bool
	if seen == nil {
		local = make(map[int32]bool)
	}
	for cx := cx0; cx <= cx1; cx++ {
		for cy := cy0; cy <= cy1; cy++ {
			lo, hi := g.cellRun(packCell(cx, cy))
			for _, e := range g.base[lo:hi] {
				if seen != nil {
					if seen[e.id] {
						continue
					}
					seen[e.id] = true
					touched = append(touched, e.id)
				} else {
					if local[e.id] {
						continue
					}
					local[e.id] = true
				}
				fn(e.id)
			}
		}
	}
	for _, id := range touched {
		seen[id] = false
	}
}

// floorDiv divides rounding toward negative infinity, so the grid is
// well-defined for negative coordinates.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
