package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// liveEntries folds pending mutations and returns the number of live cell
// registrations.
func liveEntries(g *Grid) int {
	g.build()
	return len(g.base)
}

// TestGridRemove: removing an entry with the rect it was inserted with must
// leave the grid equivalent to one that never saw the entry, across
// interleaved query/mutate rounds (the incremental maintenance path).
func TestGridRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type item struct {
		id int32
		r  Rect
	}
	live := map[int32]item{}
	g := NewGrid(100)
	next := int32(0)
	for round := 0; round < 50; round++ {
		// Mutate: a few inserts and removes.
		for k := 0; k < 3; k++ {
			x := rng.Int63n(2000) - 1000
			y := rng.Int63n(2000) - 1000
			it := item{next, R(x, y, x+rng.Int63n(300)+1, y+rng.Int63n(300)+1)}
			next++
			live[it.id] = it
			g.Insert(it.id, it.r)
		}
		if len(live) > 4 && rng.Intn(2) == 0 {
			for id, it := range live {
				g.Remove(id, it.r)
				delete(live, id)
				break
			}
		}
		// Reference grid built from scratch over the live set.
		ref := NewGrid(100)
		for _, it := range live {
			ref.Insert(it.id, it.r)
		}
		if liveEntries(g) != liveEntries(ref) {
			t.Fatalf("round %d: %d entries, want %d", round, liveEntries(g), liveEntries(ref))
		}
		if !slices.Equal(g.base, ref.base) {
			t.Fatalf("round %d: folded entries diverged from rebuild", round)
		}
		// Query equivalence on a random window.
		q := R(rng.Int63n(2000)-1000, rng.Int63n(2000)-1000, rng.Int63n(2000), rng.Int63n(2000))
		got := map[int32]bool{}
		g.Query(q, nil, func(id int32) { got[id] = true })
		want := map[int32]bool{}
		ref.Query(q, nil, func(id int32) { want[id] = true })
		if len(got) != len(want) {
			t.Fatalf("round %d: query returned %d ids, want %d", round, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("round %d: query missing id %d", round, id)
			}
		}
	}
}

// TestGridRemoveUnmatched: removing a pair that was never inserted must not
// disturb other entries, including later removes of real entries.
func TestGridRemoveUnmatched(t *testing.T) {
	g := NewGrid(50)
	g.Insert(1, R(0, 0, 10, 10))
	g.Insert(2, R(5, 5, 20, 20))
	g.Remove(3, R(0, 0, 10, 10))           // never inserted
	g.Remove(1, R(1000, 1000, 1010, 1010)) // wrong rect: no matching cells
	if liveEntries(g) != 2 {
		t.Fatalf("unmatched removes changed the grid: %d entries", liveEntries(g))
	}
	g.Remove(1, R(0, 0, 10, 10))
	found := false
	g.Query(R(0, 0, 30, 30), nil, func(id int32) {
		if id == 1 {
			t.Error("id 1 still present after remove")
		}
		if id == 2 {
			found = true
		}
	})
	if !found {
		t.Error("id 2 lost by sibling remove")
	}
}

// TestGridDuplicateEntries: duplicate inserts of the same (id, rect) require
// matching removes one by one.
func TestGridDuplicateEntries(t *testing.T) {
	g := NewGrid(50)
	r := R(0, 0, 10, 10)
	g.Insert(7, r)
	g.Insert(7, r)
	g.Remove(7, r)
	seen := false
	g.Query(r, nil, func(id int32) { seen = seen || id == 7 })
	if !seen {
		t.Fatal("second insert vanished after one remove")
	}
	g.Remove(7, r)
	seen = false
	g.Query(r, nil, func(id int32) { seen = seen || id == 7 })
	if seen {
		t.Fatal("id 7 present after matched removes")
	}
}

// TestGridBoundedPendingLog: a long-lived grid mutated in Insert/Remove
// cycles with no interleaved queries (an idle session's edit stream) must
// keep its pending logs bounded — compaction folds them into the base
// instead of letting cancelled pairs accumulate forever.
func TestGridBoundedPendingLog(t *testing.T) {
	g := NewGrid(100)
	const live = 500
	for i := 0; i < live; i++ {
		g.Insert(int32(i), R(int64(i)*40, 0, int64(i)*40+30, 30))
	}
	// Cell registrations, not ids: rects straddling a cell border occupy two
	// cells.
	baseline := liveEntries(g)
	// 10k edit cycles: move one feature back and forth (Remove + Insert),
	// never querying.
	for c := 0; c < 10000; c++ {
		id := int32(c % live)
		r0 := R(int64(id)*40, 0, int64(id)*40+30, 30)
		r1 := r0.Translate(Pt(5, 5))
		g.Remove(id, r0)
		g.Insert(id, r1)
		g.Remove(id, r1)
		g.Insert(id, r0)
		if pending := len(g.adds) + len(g.dels); pending > 4*compactMinPending {
			t.Fatalf("cycle %d: pending log grew to %d entries (base %d)", c, pending, len(g.base))
		}
	}
	// The live set is unchanged, so after folding the base must hold exactly
	// the original registrations.
	if got := liveEntries(g); got != baseline {
		t.Fatalf("live entries = %d after balanced edit cycles, want %d", got, baseline)
	}
	for i := 0; i < live; i++ {
		found := false
		g.Query(R(int64(i)*40, 0, int64(i)*40+30, 30), nil, func(id int32) { found = found || id == int32(i) })
		if !found {
			t.Fatalf("id %d lost", i)
		}
	}
}

// TestGridCompactionPreservesSemantics: interleaving enough mutations to
// cross the compaction threshold must not change Remove's cancel-one-Insert
// semantics.
func TestGridCompactionPreservesSemantics(t *testing.T) {
	g := NewGrid(50)
	r := R(0, 0, 10, 10)
	g.Insert(1, r)
	g.Insert(1, r) // duplicate registration
	g.Remove(1, r) // cancels one of the two
	// Push far past the threshold so at least one compaction runs with the
	// duplicate/cancel state pending.
	for i := 0; i < 3*compactMinPending; i++ {
		id := int32(100 + i%64)
		rr := R(int64(i%64)*20, 100, int64(i%64)*20+10, 110)
		g.Insert(id, rr)
		g.Remove(id, rr)
	}
	seen := false
	g.Query(r, nil, func(id int32) { seen = seen || id == 1 })
	if !seen {
		t.Fatal("surviving duplicate registration lost across compaction")
	}
	g.Remove(1, r)
	seen = false
	g.Query(r, nil, func(id int32) { seen = seen || id == 1 })
	if seen {
		t.Fatal("id 1 present after matched removes")
	}
	if liveEntries(g) != 0 {
		t.Fatalf("live entries = %d, want 0", liveEntries(g))
	}
}

// TestGridBulkLoadDefersBuild: a bulk load with no removes must leave every
// entry in the pending log, unsorted, until the first query folds it in one
// sort — not re-merge the base each time the log passes the compaction
// threshold.
func TestGridBulkLoadDefersBuild(t *testing.T) {
	g := NewGrid(100)
	const n = 100_000
	for i := 0; i < n; i++ {
		x := int64(i%400) * 100
		y := int64(i/400) * 100
		g.Insert(int32(i), R(x+10, y+10, x+60, y+60))
	}
	if len(g.base) != 0 || len(g.adds) != n {
		t.Fatalf("after %d inserts: base %d entries, pending adds %d; want 0 and %d", n, len(g.base), len(g.adds), n)
	}
	hits := 0
	g.Query(R(0, 0, 250, 250), nil, func(int32) { hits++ })
	if len(g.base) != n || len(g.adds) != 0 {
		t.Fatalf("after first query: base %d entries, pending adds %d; want %d and 0", len(g.base), len(g.adds), n)
	}
	if hits != 9 {
		t.Fatalf("query hit %d ids, want 9", hits)
	}
}

// TestGridChurnBoundedByLive: Remove/Insert churn with no queries, starting
// straight after an unqueried bulk load, must keep the pending log within a
// constant factor of the live entry count.
func TestGridChurnBoundedByLive(t *testing.T) {
	g := NewGrid(100)
	const live = 8192
	rect := func(i int32, dx int64) Rect {
		x := int64(i%128)*100 + dx
		y := int64(i/128) * 100
		return R(x+10, y+10, x+60, y+60)
	}
	for i := int32(0); i < live; i++ {
		g.Insert(i, rect(i, 0))
	}
	for c := 0; c < 50_000; c++ {
		id := int32(c % live)
		g.Remove(id, rect(id, 0))
		g.Insert(id, rect(id, 5))
		g.Remove(id, rect(id, 5))
		g.Insert(id, rect(id, 0))
		if pending := len(g.adds) + len(g.dels); pending > live/2+compactMinPending {
			t.Fatalf("cycle %d: pending log grew to %d entries for %d live", c, pending, live)
		}
	}
	if got := liveEntries(g); got != live {
		t.Fatalf("live entries = %d after balanced churn, want %d", got, live)
	}
}
