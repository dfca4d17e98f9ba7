package server

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	aapsm "repro"
)

// The session store as a checked state machine, in the style of QuickCheck's
// state-machine testing (Claessen & Hughes, ICFP 2000): a seeded random mix
// of store operations, with a fake eviction callback that succeeds or fails
// by seed and sometimes re-enters the store for its own ID, the way a
// request arriving mid-write does. The store's invariants are checked after
// every step.

const (
	modelCapacity = 3
	modelTTL      = 10 * time.Minute
	modelHashes   = 6
)

// storeModel is the reference state one sequential run keeps beside the
// store: the references it holds, the entries it deleted, and what the
// latest eviction callback of each entry returned.
type storeModel struct {
	t     *testing.T
	seed  int64
	step  int
	op    string
	rng   *rand.Rand
	clock *fakeClock
	st    *sessionStore

	exact   bool            // sequential: the model's view of the store is exact
	held    []*sessionEntry // one element per reference the model holds
	ids     []string        // the IDs the store handed out most recently
	deleted map[*sessionEntry]bool
	lastOK  map[*sessionEntry]bool // the latest callback of the entry returned true
	firing  map[*sessionEntry]bool
}

func newStoreModel(t *testing.T, seed int64) *storeModel {
	m := &storeModel{
		t: t, seed: seed, exact: true,
		rng:     rand.New(rand.NewSource(seed)),
		clock:   newFakeClock(),
		deleted: map[*sessionEntry]bool{},
		lastOK:  map[*sessionEntry]bool{},
		firing:  map[*sessionEntry]bool{},
	}
	m.st = newSessionStore(modelCapacity, modelTTL, m.clock.Now, m.onEvict)
	return m
}

func (m *storeModel) fail(format string, args ...any) {
	m.t.Helper()
	if !m.exact { // not the test goroutine
		m.t.Errorf("worker %d step %d (%s): %s", m.seed, m.step, m.op, fmt.Sprintf(format, args...))
		return
	}
	m.t.Fatalf("seed %d step %d (%s): %s", m.seed, m.step, m.op, fmt.Sprintf(format, args...))
}

// onEvict is the fake eviction callback.
func (m *storeModel) onEvict(e *sessionEntry, _ evictReason) bool {
	m.st.mu.Lock()
	refs := e.refs
	m.st.mu.Unlock()
	if refs != 0 {
		m.fail("callback for %s runs while %d references hold it", e.ID, refs)
	}
	if m.firing[e] {
		m.fail("two callbacks for %s at once", e.ID)
	}
	m.firing[e] = true
	defer delete(m.firing, e)
	delete(m.lastOK, e)
	switch m.rng.Intn(8) {
	case 0: // a request for the session arrives mid-write
		got, ok := m.st.get(e.ID)
		if !ok || got != e {
			m.fail("get of %s during its own eviction missed", e.ID)
		}
		m.held = append(m.held, got)
	case 1: // a DELETE arrives mid-write
		if m.st.delete(e.ID) != e {
			m.fail("delete of %s during its own eviction missed", e.ID)
		}
		m.deleted[e] = true
	}
	ok := m.rng.Intn(4) != 0
	if ok {
		m.lastOK[e] = true
	}
	return ok
}

func (m *storeModel) hash() string { return testHash(m.rng.Intn(modelHashes)) }

func (m *storeModel) pickID() string {
	if len(m.ids) == 0 {
		return "none-1"
	}
	return m.ids[m.rng.Intn(len(m.ids))]
}

// pickHeld returns the index of a random held reference, or -1.
func (m *storeModel) pickHeld() int {
	if len(m.held) == 0 {
		return -1
	}
	return m.rng.Intn(len(m.held))
}

func (m *storeModel) acquired(e *sessionEntry) {
	m.held = append(m.held, e)
	if m.ids = append(m.ids, e.ID); len(m.ids) > 2*modelHashes {
		m.ids = m.ids[1:]
	}
}

func nilSession() (*aapsm.Session, error) { return nil, nil }

// doStep runs one random operation. The model holds at most a handful of
// references, so requests come and go as they do in a server.
func (m *storeModel) doStep() {
	st := m.st
	r := m.rng.Intn(20)
	if len(m.held) > 2*modelCapacity {
		r = 10 // release
	}
	switch {
	case r < 4:
		m.op = "getOrCreate"
		e, _, err := st.getOrCreate(context.Background(), m.hash(), nilSession)
		if err != nil {
			m.fail("%v", err)
		}
		m.acquired(e)
	case r < 5:
		m.op = "adopt"
		h := m.hash()
		e, _ := st.adopt(fmt.Sprintf("%s-%d", h[:12], 1+m.rng.Intn(6)), h, m.rng.Intn(2) == 0, nil)
		m.acquired(e)
	case r < 9:
		m.op = "get"
		id := m.pickID()
		st.mu.Lock()
		want := st.byID[id]
		st.mu.Unlock()
		e, ok := st.get(id)
		if m.exact && (ok != (want != nil) || e != want) {
			m.fail("get(%s) = %p, %v; the index held %p", id, e, ok, want)
		}
		if ok {
			m.held = append(m.held, e)
		}
	case r < 13:
		m.op = "release"
		if i := m.pickHeld(); i >= 0 {
			e := m.held[i]
			m.held = append(m.held[:i], m.held[i+1:]...)
			st.release(e)
		}
	case r < 14:
		m.op = "hold"
		if i := m.pickHeld(); i >= 0 {
			st.hold(m.held[i])
			m.held = append(m.held, m.held[i])
		}
	case r < 15:
		m.op = "markEdited"
		if i := m.pickHeld(); i >= 0 {
			st.markEdited(m.held[i])
		}
	case r < 16:
		m.op = "delete"
		if e := st.delete(m.pickID()); e != nil {
			m.deleted[e] = true
		}
	case r < 17:
		m.op = "sweep"
		st.sweep()
	case r < 18:
		m.op = "unpin" // a flush write of a held session succeeded
		if i := m.pickHeld(); i >= 0 {
			st.unpin(m.held[i])
		}
	default:
		m.op = "advance"
		m.clock.Advance(time.Duration(m.rng.Int63n(int64(modelTTL / 2))))
	}
}

// checkStructure asserts the invariants that hold whenever the store mutex
// is free, and returns the entries in the ID index and the pinned count.
func checkStructure(st *sessionStore, fail func(string, ...any)) (map[*sessionEntry]bool, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	indexed := map[*sessionEntry]bool{}
	inLRU, pinned := 0, 0
	for id, e := range st.byID {
		if e.ID != id {
			fail("byID[%s] holds %s", id, e.ID)
		}
		indexed[e] = true
		if e.leaving == "" {
			inLRU++
			if e.elem == nil {
				fail("%s is neither in the LRU list nor leaving", e.ID)
			}
		}
		if e.pinned {
			pinned++
			if e.leaving != "" {
				fail("pinned %s is leaving", e.ID)
			}
		}
	}
	for el := st.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*sessionEntry); !indexed[e] || e.leaving != "" {
			fail("LRU list holds %s, unindexed or leaving", e.ID)
		}
	}
	if n := st.lru.Len(); inLRU != n {
		fail("LRU length %d, entries not leaving %d", n, inLRU)
	}
	if n := st.lru.Len(); n > st.capacity+pinned {
		fail("LRU length %d over capacity %d + pinned %d", n, st.capacity, pinned)
	}
	for h, e := range st.byHash {
		if e.Hash != h || !indexed[e] || e.edited {
			fail("byHash[%s] holds %s: indexed %v, edited %v", h[:12], e.ID, indexed[e], e.edited)
		}
	}
	return indexed, pinned
}

// check asserts every invariant after one sequential step; before is the ID
// index as the step found it.
func (m *storeModel) check(before map[*sessionEntry]bool) map[*sessionEntry]bool {
	m.t.Helper()
	indexed, pinned := checkStructure(m.st, m.fail)
	if live, n := m.st.len(), m.st.pinnedCount(); live != m.st.lru.Len() || n != pinned {
		m.fail("live count %d, pinnedCount %d; want the LRU length and %d", live, n, pinned)
	}
	if len(m.firing) != 0 {
		m.fail("a callback still runs between steps")
	}
	refs := map[*sessionEntry]int{}
	for _, e := range m.held {
		refs[e]++
		if !m.deleted[e] && !indexed[e] {
			m.fail("held %s is no longer indexed", e.ID)
		}
	}
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	for e := range before {
		if !indexed[e] && !m.deleted[e] && !m.lastOK[e] {
			m.fail("%s left the index without a DELETE or a successful callback", e.ID)
		}
	}
	for e := range indexed {
		if e.refs != refs[e] {
			m.fail("%s has %d references, the model holds %d", e.ID, e.refs, refs[e])
		}
	}
	return indexed
}

// runStoreModel drives one seeded sequential run of n steps.
func runStoreModel(t *testing.T, seed int64, n int) {
	m := newStoreModel(t, seed)
	indexed := map[*sessionEntry]bool{}
	for m.step = 0; m.step < n; m.step++ {
		m.doStep()
		indexed = m.check(indexed)
	}
	// Release every reference, checking after each release.
	for len(m.held) > 0 {
		m.op = "drain release"
		e := m.held[len(m.held)-1]
		m.held = m.held[:len(m.held)-1]
		m.st.release(e)
		indexed = m.check(indexed)
	}
}

// TestStoreModel runs the sequential state machine over many seeds: 2×10⁵
// steps in all.
func TestStoreModel(t *testing.T) {
	const seeds, steps = 40, 5000
	for seed := int64(1); seed <= seeds; seed++ {
		runStoreModel(t, seed, steps)
	}
}

// TestStoreModelConcurrent runs the same operation mix from several
// goroutines at once (meant for -race): each goroutine checks the
// structural invariants after every step, the callback checks hold across
// goroutines, and the quiescent store passes every check at the end.
func TestStoreModelConcurrent(t *testing.T) {
	const workers, steps = 4, 3000
	var (
		mu     sync.Mutex
		firing = map[*sessionEntry]bool{}
		rng    = rand.New(rand.NewSource(1))
	)
	clock := newFakeClock()
	var st *sessionStore
	fail := func(format string, args ...any) { t.Errorf(format, args...) }
	// A lookup may take the entry back as soon as its callback starts, so
	// only the sequential run can check the reference count there.
	st = newSessionStore(modelCapacity, modelTTL, clock.Now, func(e *sessionEntry, _ evictReason) bool {
		mu.Lock()
		if firing[e] {
			t.Errorf("two callbacks for %s at once", e.ID)
		}
		firing[e] = true
		r := rng.Intn(16)
		mu.Unlock()
		switch r {
		case 0:
			if got, ok := st.get(e.ID); ok {
				st.release(got)
			}
		case 1:
			st.delete(e.ID)
		}
		mu.Lock()
		delete(firing, e)
		mu.Unlock()
		return r%4 != 3
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := &storeModel{
				t: t, seed: int64(w), rng: rand.New(rand.NewSource(int64(100 + w))), clock: clock, st: st,
				deleted: map[*sessionEntry]bool{}, lastOK: map[*sessionEntry]bool{}, firing: map[*sessionEntry]bool{},
			}
			for m.step = 0; m.step < steps; m.step++ {
				m.doStep()
				checkStructure(st, fail)
			}
			for _, e := range m.held {
				st.release(e)
			}
		}(w)
	}
	wg.Wait()
	checkStructure(st, fail)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.byID {
		if e.refs != 0 || e.firing || e.leaving != "" {
			t.Errorf("quiescent %s: refs %d, firing %v, leaving %q", e.ID, e.refs, e.firing, e.leaving)
		}
	}
}
