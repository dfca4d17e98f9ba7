package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	aapsm "repro"
)

// fakeClock is a manually-advanced clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 7, 26, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testHash(i int) string {
	return fmt.Sprintf("%016x%048d", i, 0)
}

func mkSession() (*aapsm.Session, error) {
	l := aapsm.NewLayout("t")
	l.Add(aapsm.R(0, 0, 100, 1000))
	return aapsm.NewEngine().NewSession(l), nil
}

// mustSession is mkSession without the error, for adopt call sites.
func mustSession() *aapsm.Session {
	s, _ := mkSession()
	return s
}

func TestStoreSingleFlight(t *testing.T) {
	st := newSessionStore(16, time.Hour, nil, nil)
	var built atomic.Int32
	var wg sync.WaitGroup
	ids := make([]string, 32)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ent, _, err := st.getOrCreate(context.Background(), testHash(1), func() (*aapsm.Session, error) {
				built.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				return mkSession()
			})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = ent.ID
		}(i)
	}
	wg.Wait()
	if n := built.Load(); n != 1 {
		t.Errorf("construction ran %d times, want 1", n)
	}
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("callers got different sessions: %q vs %q", id, ids[0])
		}
	}
}

func TestStoreSingleFlightErrorNotCached(t *testing.T) {
	st := newSessionStore(16, time.Hour, nil, nil)
	boom := errors.New("boom")
	if _, _, err := st.getOrCreate(context.Background(), testHash(1), func() (*aapsm.Session, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := st.getOrCreate(context.Background(), testHash(1), mkSession); err != nil {
		t.Fatalf("create after failed create: %v", err)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	evicted := map[evictReason]int{}
	st := newSessionStore(3, time.Hour, nil, func(_ *sessionEntry, r evictReason) bool { evicted[r]++; return true })
	var ids []string
	for i := 0; i < 5; i++ {
		ent, _, err := st.getOrCreate(context.Background(), testHash(i), mkSession)
		if err != nil {
			t.Fatal(err)
		}
		st.release(ent)
		ids = append(ids, ent.ID)
	}
	if st.len() != 3 {
		t.Fatalf("len = %d, want capacity 3", st.len())
	}
	if evicted[evictLRU] != 2 {
		t.Fatalf("lru evictions = %d, want 2", evicted[evictLRU])
	}
	// The two oldest are gone, the three newest live.
	for i, id := range ids {
		e, ok := st.get(id)
		if ok {
			st.release(e)
		}
		if want := i >= 2; ok != want {
			t.Errorf("session %d live = %v, want %v", i, ok, want)
		}
	}
	// Touching the LRU tail protects it from the next eviction.
	if e, ok := st.get(ids[2]); ok {
		st.release(e)
	}
	if e, _, err := st.getOrCreate(context.Background(), testHash(5), mkSession); err != nil {
		t.Fatal(err)
	} else {
		st.release(e)
	}
	if _, ok := st.get(ids[2]); !ok {
		t.Error("recently-touched session evicted before older one")
	}
	if _, ok := st.get(ids[3]); ok {
		t.Error("least-recently-used session survived eviction")
	}
}

func TestStoreTTL(t *testing.T) {
	clock := newFakeClock()
	evicted := map[evictReason]int{}
	st := newSessionStore(16, 10*time.Minute, clock.Now, func(_ *sessionEntry, r evictReason) bool { evicted[r]++; return true })
	ent, _, err := st.getOrCreate(context.Background(), testHash(1), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	st.release(ent)
	clock.Advance(9 * time.Minute)
	if e, ok := st.get(ent.ID); !ok {
		t.Fatal("session expired before its TTL")
	} else {
		st.release(e)
	}
	// The access refreshed the deadline.
	clock.Advance(9 * time.Minute)
	if e, ok := st.get(ent.ID); !ok {
		t.Fatal("access did not refresh the TTL")
	} else {
		st.release(e)
	}
	// Expiry is the sweep's job: past the TTL the session is still served
	// until a sweep runs, and then it is gone.
	clock.Advance(11 * time.Minute)
	st.sweep()
	if _, ok := st.get(ent.ID); ok {
		t.Fatal("session alive past its TTL and a sweep")
	}
	if evicted[evictTTL] != 1 {
		t.Fatalf("ttl evictions = %d, want 1", evicted[evictTTL])
	}
	// An expired pristine session must not satisfy create-by-hash.
	ent2, reused, err := st.getOrCreate(context.Background(), testHash(1), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	if reused || ent2.ID == ent.ID {
		t.Fatal("expired session reattached on create")
	}
	st.release(ent2)
	// sweep removes expired entries without an access.
	clock.Advance(11 * time.Minute)
	st.sweep()
	if st.len() != 0 {
		t.Fatalf("len = %d after sweep, want 0", st.len())
	}
}

func TestStoreEditedSessionNotReused(t *testing.T) {
	st := newSessionStore(16, time.Hour, nil, nil)
	ent, _, err := st.getOrCreate(context.Background(), testHash(1), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	if e2, reused, _ := st.getOrCreate(context.Background(), testHash(1), mkSession); !reused || e2.ID != ent.ID {
		t.Fatal("pristine session must be reattached by hash")
	}
	st.markEdited(ent)
	e3, reused, err := st.getOrCreate(context.Background(), testHash(1), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	if reused || e3.ID == ent.ID {
		t.Fatal("edited session must not satisfy create-by-hash")
	}
	// The edited session stays addressable by ID.
	if _, ok := st.get(ent.ID); !ok {
		t.Fatal("edited session lost")
	}
}

func TestStoreDelete(t *testing.T) {
	st := newSessionStore(16, time.Hour, nil, nil)
	ent, _, err := st.getOrCreate(context.Background(), testHash(1), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	if st.delete(ent.ID) != ent {
		t.Fatal("delete of live session did not return it")
	}
	if st.delete(ent.ID) != nil {
		t.Fatal("double delete returned an entry")
	}
	if _, ok := st.get(ent.ID); ok {
		t.Fatal("session alive after delete")
	}
}

// TestStoreDeferredEvictionWhileHeld: evicting an entry a request still holds
// takes it out of the LRU list but leaves it resolvable by ID, and defers the
// eviction callback to the last release, so snapshot-on-evict can never race
// the in-flight work and no second copy of the session can appear.
func TestStoreDeferredEvictionWhileHeld(t *testing.T) {
	var fired []string
	st := newSessionStore(1, time.Hour, nil, func(e *sessionEntry, r evictReason) bool {
		fired = append(fired, e.ID+":"+string(r))
		return true
	})
	a, _, err := st.getOrCreate(context.Background(), testHash(1), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 1: creating b evicts a while this "request" still holds it.
	b, _, err := st.getOrCreate(context.Background(), testHash(2), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	st.release(b)
	if !st.indexed(a) {
		t.Fatal("evicted-but-held entry no longer resolvable by ID")
	}
	if st.len() != 1 {
		t.Fatalf("live sessions = %d, want 1 (the leaving entry is out of the LRU)", st.len())
	}
	if len(fired) != 0 {
		t.Fatalf("eviction callback fired while the entry was held: %v", fired)
	}
	// The held entry stays fully usable; marking it edited must stick so the
	// eviction snapshot is not stored as pristine.
	st.markEdited(a)
	if !st.isEdited(a) {
		t.Fatal("markEdited on an evicted-but-held entry did not stick")
	}
	st.release(a)
	if want := []string{a.ID + ":lru"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	if st.indexed(a) {
		t.Fatal("entry still stored after its eviction callback succeeded")
	}
	// Idempotent: explicit delete of the already-gone entry must not re-fire.
	st.delete(a.ID)
	if len(fired) != 1 {
		t.Fatalf("callback fired twice: %v", fired)
	}
}

// TestStoreUnpinTrimsToCapacity: a session pinned in place after a failed
// eviction write holds the store over capacity only while the pin lasts;
// lifting it trims the store back to capacity at once.
func TestStoreUnpinTrimsToCapacity(t *testing.T) {
	fired := 0
	st := newSessionStore(1, time.Hour, nil, func(e *sessionEntry, _ evictReason) bool {
		fired++
		return fired > 1 // the first eviction write fails
	})
	a, _, err := st.getOrCreate(context.Background(), testHash(1), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	st.release(a)
	b, _, err := st.getOrCreate(context.Background(), testHash(2), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	st.release(b)
	if st.len() != 2 || st.pinnedCount() != 1 || fired != 1 {
		t.Fatalf("after the failed eviction: len %d, pinned %d, fired %d; want 2, 1, 1",
			st.len(), st.pinnedCount(), fired)
	}
	st.unpin(a)
	if st.len() != 1 || st.pinnedCount() != 0 {
		t.Fatalf("after unpin: len %d, pinned %d; want capacity 1, 0", st.len(), st.pinnedCount())
	}
	if fired != 2 {
		t.Fatalf("eviction callback fired %d times, want 2", fired)
	}
}

// TestStoreAdopt: adoption revives a session under its original ID, advances
// the ID sequence past it, and respects the edited flag for create-by-hash.
func TestStoreAdopt(t *testing.T) {
	st := newSessionStore(16, time.Hour, nil, nil)
	hash := testHash(1)
	id := hash[:12] + "-41"
	ent, adopted := st.adopt(id, hash, false, mustSession())
	if !adopted || ent.ID != id {
		t.Fatalf("adopt = %v, %v", ent.ID, adopted)
	}
	// Adopting the same ID again reattaches instead of replacing.
	ent2, adopted := st.adopt(id, hash, false, mustSession())
	if adopted || ent2 != ent {
		t.Fatal("second adopt of a live ID must reattach")
	}
	st.release(ent2)
	// A pristine adoptee satisfies create-by-hash.
	e3, reused, err := st.getOrCreate(context.Background(), hash, mkSession)
	if err != nil || !reused || e3 != ent {
		t.Fatalf("create-by-hash after adopt: reused=%v err=%v", reused, err)
	}
	st.release(e3)
	// New IDs continue past the adopted sequence number.
	e4, _, err := st.getOrCreate(context.Background(), testHash(2), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	if want := testHash(2)[:12] + "-42"; e4.ID != want {
		t.Fatalf("post-adopt ID = %q, want %q", e4.ID, want)
	}
	st.release(e4)
	st.release(ent)

	// An edited adoptee stays out of the hash index.
	edited, _ := st.adopt(testHash(3)[:12]+"-50", testHash(3), true, mustSession())
	e5, reused, err := st.getOrCreate(context.Background(), testHash(3), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	if reused || e5 == edited {
		t.Fatal("edited adoptee satisfied create-by-hash")
	}
	st.release(e5)
	st.release(edited)
}
