package server

import (
	"container/list"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	aapsm "repro"
)

// sessionEntry is one stored session plus its bookkeeping. The session
// itself is concurrency-safe; the entry's mutable fields (expiry, LRU
// position, edited flag, refcount) are guarded by the store mutex.
type sessionEntry struct {
	ID   string
	Hash string // content hash of the layout the session was created from
	Sess *aapsm.Session

	Created time.Time
	// expires, edited and elem are index state, guarded by st.mu (the
	// owning store's lock).
	expires time.Time     // guarded by st.mu
	edited  bool          // once true, the entry no longer satisfies create-by-hash; guarded by st.mu
	elem    *list.Element // guarded by st.mu

	// refs counts in-flight requests holding the entry (acquired by
	// get/getOrCreate/adopt, dropped by release). An entry evicted while
	// refs > 0 stays fully usable by those requests — only the indexes
	// forget it — and its eviction callback is deferred to the last release,
	// so eviction can never race a request mid-stage. refs, gone,
	// finalized and why are all guarded by st.mu (the owning store's lock).
	refs      int         // guarded by st.mu
	gone      bool        // removed from the indexes; finalize at refs == 0; guarded by st.mu
	finalized bool        // guarded by st.mu
	why       evictReason // guarded by st.mu

	// pinned marks an entry whose state could not be persisted: it is exempt
	// from LRU overflow and TTL expiry until a snapshot write succeeds
	// (unpin), so store faults degrade to higher memory use, never to lost
	// session work. Guarded by st.mu (the owning store's lock).
	pinned bool
	// slots bounds requests concurrently inside handlers for this session
	// (per-session admission control; distinct from refs, which also counts
	// flush loops and short index holds). Nil when the bound is disabled.
	// A channel, not a counter, so saturated requests can queue on it with
	// the same timer/cancel logic as the global admission semaphore.
	slots chan struct{}
	// batch coalesces concurrent edit requests into merged Session.Edit
	// batches and fans results back out (see batcher.go). It also carries
	// the edit-notification channel streaming connections wait on.
	batch *editBatcher
}

// evictReason labels why a session left the store (metrics).
type evictReason string

const (
	evictLRU      evictReason = "lru"
	evictTTL      evictReason = "ttl"
	evictExplicit evictReason = "delete"
)

// sessionStore is a bounded LRU+TTL map of live sessions.
//
// Sessions are keyed two ways: by session ID (every lookup), and by layout
// content hash (creation). Creating a session whose layout hashes to a
// pristine — never edited — stored session reattaches to it instead of
// rebuilding, and concurrent creations of the same hash are single-flighted
// so the layout is parsed and the session built exactly once. An edited
// session stays addressable by ID but is removed from the hash index: its
// contents have diverged from the uploaded bytes, so a fresh upload of the
// original layout gets a fresh session.
//
// Every access refreshes both the TTL and the LRU position. Capacity
// overflow evicts the least recently used entry; expiry is enforced lazily
// on access and eagerly by sweep (driven by the server's ticker).
//
// Lookups hand back refcounted entries: callers MUST pair every successful
// get/getOrCreate/adopt with release. The eviction callback runs outside the
// store mutex, exactly once per entry, and only once no request holds it —
// so it may take the session lock (snapshot-on-evict does).
type sessionStore struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	// slotCap sizes each entry's per-session admission semaphore (0 = no
	// bound). The server sets it right after construction, before any entry
	// exists.
	slotCap int
	now     func() time.Time
	// The session indexes and counters: all guarded by mu.
	byID    map[string]*sessionEntry // guarded by mu
	byHash  map[string]*sessionEntry // pristine sessions only; guarded by mu
	lru     *list.List               // front = most recently used; values are *sessionEntry; guarded by mu
	seq     int64                    // guarded by mu
	pinnedN int                      // entries currently pinned (persistence degraded); guarded by mu
	onEvict func(*sessionEntry, evictReason)
	// creating single-flights session construction per content hash.
	creating flight[string, *sessionEntry]
}

func newSessionStore(capacity int, ttl time.Duration, now func() time.Time, onEvict func(*sessionEntry, evictReason)) *sessionStore {
	if capacity < 1 {
		capacity = 1
	}
	if now == nil {
		now = time.Now
	}
	if onEvict == nil {
		onEvict = func(*sessionEntry, evictReason) {}
	}
	return &sessionStore{
		capacity: capacity,
		ttl:      ttl,
		now:      now,
		byID:     make(map[string]*sessionEntry),
		byHash:   make(map[string]*sessionEntry),
		lru:      list.New(),
		onEvict:  onEvict,
	}
}

// getOrCreate returns the pristine session stored for hash, or builds one
// with mk and stores it. Concurrent calls for the same hash coalesce: one
// caller runs mk, the rest wait and share the result (or the error, which is
// not cached — a later create retries). A waiting follower honors ctx and
// gives up without a session when its request deadline passes; the leader's
// construction itself runs to completion (its result is useful to every
// later creator). reused reports whether an existing session was returned.
// The returned entry is acquired; the caller must release it.
func (st *sessionStore) getOrCreate(ctx context.Context, hash string, mk func() (*aapsm.Session, error)) (ent *sessionEntry, reused bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if e := st.pristine(hash); e != nil {
			return e, true, nil
		}
		e, shared, err := st.creating.do(ctx, hash, false, func() (*sessionEntry, error) {
			// A leader that finished between this caller's miss above and
			// its win of the flight has already stored the session.
			if e := st.pristine(hash); e != nil {
				reused = true
				return e, nil
			}
			sess, err := mk()
			if err != nil {
				return nil, err
			}
			st.mu.Lock()
			st.seq++
			e := st.newEntryLocked(fmt.Sprintf("%s-%d", hash[:12], st.seq), hash, sess)
			fire := st.insertLocked(e)
			st.mu.Unlock()
			st.fire(fire)
			return e, nil
		})
		if err != nil {
			return nil, false, err
		}
		if !shared {
			return e, reused, nil
		}
		// The leader's entry may already have been evicted (or expired)
		// between its insertion and this wake-up; re-check liveness under
		// the lock and fall back to a fresh attempt.
		st.mu.Lock()
		e = st.acquireLocked(e)
		st.mu.Unlock()
		if e != nil {
			return e, true, nil
		}
	}
}

// adopt inserts a session rehydrated from a snapshot under its original ID,
// so clients holding the ID across a server restart keep working. If the ID
// is (again) live — a concurrent rehydration won — the existing entry is
// returned with adopted=false. The returned entry is acquired; the caller
// must release it.
func (st *sessionStore) adopt(id, hash string, edited bool, sess *aapsm.Session) (ent *sessionEntry, adopted bool) {
	st.mu.Lock()
	if e := st.acquireLocked(st.byID[id]); e != nil {
		st.mu.Unlock()
		return e, false
	}
	// Keep new IDs unique: IDs are "<hash12>-<seq>", and a restarted process
	// starts over at seq 0, so adopting an old ID must advance seq past it.
	if i := strings.LastIndexByte(id, '-'); i >= 0 {
		if n, err := strconv.ParseInt(id[i+1:], 10, 64); err == nil && n > st.seq {
			st.seq = n
		}
	}
	ent = st.newEntryLocked(id, hash, sess)
	ent.edited = edited
	fire := st.insertLocked(ent)
	st.mu.Unlock()
	st.fire(fire)
	return ent, true
}

// get returns the live entry for id, refreshing its TTL and LRU position.
// The returned entry is acquired; the caller must release it.
func (st *sessionStore) get(id string) (*sessionEntry, bool) {
	st.mu.Lock()
	e, ok := st.byID[id]
	if !ok {
		st.mu.Unlock()
		return nil, false
	}
	if st.expiredLocked(e) {
		fire := st.removeLocked(e, evictTTL)
		st.mu.Unlock()
		st.fire(fire)
		return nil, false
	}
	st.touchLocked(e)
	e.refs++
	st.mu.Unlock()
	return e, true
}

// release drops one in-flight reference. The entry's eviction callback runs
// here — exactly once — if the entry was evicted while this caller held it.
func (st *sessionStore) release(e *sessionEntry) {
	st.mu.Lock()
	e.refs--
	var fire []*sessionEntry
	if e.gone && e.refs == 0 && !e.finalized {
		e.finalized = true
		fire = append(fire, e)
	}
	st.mu.Unlock()
	st.fire(fire)
}

// markEdited drops the entry from the hash index: its layout has diverged
// from the content it was created from. It takes the entry, not the ID, so
// an edit landing on an evicted-but-held entry still flips the flag — the
// deferred eviction snapshot must not be stored as pristine.
func (st *sessionStore) markEdited(e *sessionEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !e.edited {
		e.edited = true
		if st.byHash[e.Hash] == e {
			delete(st.byHash, e.Hash)
		}
	}
}

// readmit reinserts an evicted entry whose eviction-time snapshot write
// failed, pinned: graceful degradation keeps the unpersistable session in
// memory (exempt from LRU/TTL, possibly over capacity) instead of dropping
// its work. When the ID is live again under a different entry (a concurrent
// request rehydrated an older snapshot first), the caller's entry is
// abandoned.
func (st *sessionStore) readmit(e *sessionEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.byID[e.ID]; ok {
		return
	}
	e.gone, e.finalized = false, false
	if !e.pinned {
		e.pinned = true
		st.pinnedN++
	}
	e.elem = st.lru.PushFront(e)
	e.expires = st.now().Add(st.ttl)
	st.byID[e.ID] = e
	if !e.edited && st.byHash[e.Hash] == nil {
		st.byHash[e.Hash] = e
	}
}

// unpin lifts the persistence pin after a successful snapshot write; the
// entry resumes the normal LRU/TTL lifecycle, and the store, which the pin
// may have held over capacity, is trimmed back to it.
func (st *sessionStore) unpin(e *sessionEntry) {
	st.mu.Lock()
	var fire []*sessionEntry
	if e.pinned {
		e.pinned = false
		st.pinnedN--
		fire = st.evictOverflowLocked()
	}
	st.mu.Unlock()
	st.fire(fire)
}

// pinnedCount returns how many live entries are pinned (readiness and
// metrics: non-zero means persistence is degraded).
func (st *sessionStore) pinnedCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.pinnedN
}

// newEntryLocked builds a fresh entry with its per-session admission
// semaphore and edit batcher armed. The store mutex must be held.
func (st *sessionStore) newEntryLocked(id, hash string, sess *aapsm.Session) *sessionEntry {
	e := &sessionEntry{
		ID:      id,
		Hash:    hash,
		Sess:    sess,
		Created: st.now(),
		batch:   newEditBatcher(),
	}
	if st.slotCap > 0 {
		e.slots = make(chan struct{}, st.slotCap)
	}
	return e
}

// insertLocked indexes a fresh entry — by hash too when it is pristine and
// no live entry holds the hash — acquired for the caller, and returns the
// entries whose eviction callback the overflow made due. The store mutex
// must be held.
func (st *sessionStore) insertLocked(e *sessionEntry) []*sessionEntry {
	st.byID[e.ID] = e
	if cur := st.byHash[e.Hash]; !e.edited && (cur == nil || st.expiredLocked(cur)) {
		st.byHash[e.Hash] = e
	}
	e.elem = st.lru.PushFront(e)
	e.expires = st.now().Add(st.ttl)
	e.refs++
	return st.evictOverflowLocked()
}

// pristine returns the live pristine session stored for hash, acquired, or
// nil.
func (st *sessionStore) pristine(hash string) *sessionEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.acquireLocked(st.byHash[hash])
}

// acquireLocked takes a reference on e, refreshing its TTL and LRU
// position, when e is non-nil and still live; otherwise it returns nil. The
// store mutex must be held.
func (st *sessionStore) acquireLocked(e *sessionEntry) *sessionEntry {
	if e == nil || e.gone || st.expiredLocked(e) {
		return nil
	}
	st.touchLocked(e)
	e.refs++
	return e
}

// hold acquires one extra reference on an already-held entry (batch runners
// that outlive the request that enqueued the work). Pair with release.
func (st *sessionStore) hold(e *sessionEntry) {
	st.mu.Lock()
	e.refs++
	st.mu.Unlock()
}

// delete removes the entry explicitly; it reports whether the id was live.
func (st *sessionStore) delete(id string) bool {
	st.mu.Lock()
	e, ok := st.byID[id]
	if !ok {
		st.mu.Unlock()
		return false
	}
	live := !st.expiredLocked(e)
	why := evictExplicit
	if !live {
		why = evictTTL
	}
	fire := st.removeLocked(e, why)
	st.mu.Unlock()
	st.fire(fire)
	return live
}

// sweep removes every expired entry; the server calls it periodically so
// idle sessions release memory without waiting for an access.
func (st *sessionStore) sweep() {
	st.mu.Lock()
	var fire []*sessionEntry
	for el := st.lru.Back(); el != nil; {
		prev := el.Prev()
		if e := el.Value.(*sessionEntry); st.expiredLocked(e) {
			fire = append(fire, st.removeLocked(e, evictTTL)...)
		}
		el = prev
	}
	st.mu.Unlock()
	st.fire(fire)
}

// snapshotEntries returns every live entry acquired, for flush loops; the
// caller must release each one.
func (st *sessionStore) snapshotEntries() []*sessionEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*sessionEntry, 0, len(st.byID))
	for _, e := range st.byID {
		e.refs++
		out = append(out, e)
	}
	return out
}

// len returns the live session count (expired entries not yet swept count
// until observed).
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

// expires returns the entry's current deadline (for session info responses).
func (st *sessionStore) expires(e *sessionEntry) time.Time {
	st.mu.Lock()
	defer st.mu.Unlock()
	return e.expires
}

// isEdited returns the entry's edited flag under the store mutex.
func (st *sessionStore) isEdited(e *sessionEntry) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return e.edited
}

func (st *sessionStore) expiredLocked(e *sessionEntry) bool {
	return !e.pinned && st.ttl > 0 && st.now().After(e.expires)
}

func (st *sessionStore) touchLocked(e *sessionEntry) {
	e.expires = st.now().Add(st.ttl)
	st.lru.MoveToFront(e.elem)
}

// evictOverflowLocked trims the store to capacity and returns the entries
// whose eviction callback is due now (none were held by requests). Pinned
// entries are skipped — they cannot be persisted, so evicting them would
// lose work; the store runs over capacity until they unpin.
func (st *sessionStore) evictOverflowLocked() []*sessionEntry {
	var fire []*sessionEntry
	el := st.lru.Back()
	for el != nil && len(st.byID) > st.capacity {
		prev := el.Prev()
		if e := el.Value.(*sessionEntry); !e.pinned {
			fire = append(fire, st.removeLocked(e, evictLRU)...)
		}
		el = prev
	}
	return fire
}

// removeLocked unlinks the entry from every index. Its eviction callback is
// due immediately when no request holds it, and otherwise deferred to the
// last release; either way the returned slice (at most one entry) is what
// the caller must fire after unlocking.
func (st *sessionStore) removeLocked(e *sessionEntry, why evictReason) []*sessionEntry {
	if e.gone {
		return nil
	}
	e.gone = true
	e.why = why
	if e.pinned { // explicit delete overrides the persistence pin
		e.pinned = false
		st.pinnedN--
	}
	delete(st.byID, e.ID)
	if st.byHash[e.Hash] == e {
		delete(st.byHash, e.Hash)
	}
	st.lru.Remove(e.elem)
	if e.refs == 0 && !e.finalized {
		e.finalized = true
		return []*sessionEntry{e}
	}
	return nil
}

// fire runs deferred eviction callbacks outside the store mutex.
func (st *sessionStore) fire(entries []*sessionEntry) {
	for _, e := range entries {
		//aapsmvet:allow guardedby why is written before finalization and immutable after; fire only sees finalized entries
		st.onEvict(e, e.why)
	}
}
