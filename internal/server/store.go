package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	aapsm "repro"
)

// sessionEntry is one stored session plus its bookkeeping. The session
// itself is concurrency-safe; the entry's mutable fields (expiry, LRU
// position, edited flag, refcount, exit state) are guarded by the store mutex.
type sessionEntry struct {
	ID   string
	Hash string // content hash of the layout the session was created from
	Sess *aapsm.Session

	Created time.Time
	// expires, edited and elem are index state, guarded by st.mu (the
	// owning store's lock). elem is nil while the entry is leaving.
	expires time.Time     // guarded by st.mu
	edited  bool          // once true, the entry no longer satisfies create-by-hash; guarded by st.mu
	elem    *list.Element // guarded by st.mu

	// refs counts in-flight requests holding the entry (acquired by
	// get/getOrCreate/adopt, dropped by release). Guarded by st.mu.
	refs int
	// leaving is why the LRU trim or the TTL sweep moved the entry out of
	// the LRU list ("" while it is in it). A leaving entry stays in byID
	// and byHash; its eviction callback runs once refs is 0, and only a
	// successful callback unlinks it. Guarded by st.mu.
	leaving evictReason
	// firing is set while the eviction callback runs, and retaken when a
	// lookup takes the entry back meanwhile: the callback's success then
	// no longer unlinks it. Both guarded by st.mu.
	firing, retaken bool

	// pinned marks an entry whose state could not be persisted: it is exempt
	// from LRU overflow and TTL expiry until a snapshot write succeeds
	// (unpin), so store faults degrade to higher memory use, never to lost
	// session work. Guarded by st.mu (the owning store's lock).
	pinned bool

	// persistMu orders this session's snapshot writes and the deletion of
	// its snapshot: one runs at a time, and a write snapshots the session
	// only once it holds the mutex, so an older write never lands last.
	persistMu sync.Mutex
	stored    [sha256.Size]byte // SHA-256 of the bytes last written, zero when unknown; guarded by persistMu

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
// Every access refreshes both the TTL and the LRU position. An entry leaves
// the store one way: the LRU trim (capacity overflow) or the TTL sweep
// (driven by the server's ticker) marks it leaving, which takes it out of
// the LRU list but leaves it addressable; once no request holds it, its
// eviction callback runs, outside the store mutex and never alongside
// another callback for the same entry, so it may take the session lock
// (snapshot-on-evict does). Success unlinks the entry; failure keeps it,
// pinned in place; a lookup meanwhile takes it back. Only delete unlinks at
// once, and lookups never expire anything. So an ID resolves to one live
// session for as long as the session is alive.
//
// Lookups hand back refcounted entries: callers MUST pair every successful
// get/getOrCreate/adopt with release.
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
	byID   map[string]*sessionEntry // every entry still in the store, leaving ones too; guarded by mu
	byHash map[string]*sessionEntry // pristine sessions only; guarded by mu
	lru    *list.List               // front = most recently used; values are *sessionEntry; guarded by mu
	seq    int64                    // guarded by mu
	due    []*sessionEntry          // entries whose eviction callback may be due; unlock runs them; guarded by mu
	// onEvict persists a leaving entry and reports whether it may be
	// unlinked; false pins it in place.
	onEvict func(*sessionEntry, evictReason) bool
	// creating single-flights session construction per content hash.
	creating flight[string, *sessionEntry]
}

func newSessionStore(capacity int, ttl time.Duration, now func() time.Time, onEvict func(*sessionEntry, evictReason) bool) *sessionStore {
	if capacity < 1 {
		capacity = 1
	}
	if now == nil {
		now = time.Now
	}
	if onEvict == nil {
		onEvict = func(*sessionEntry, evictReason) bool { return true }
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
		e, shared, err := st.creating.do(ctx, hash, func() (*sessionEntry, error) {
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
			st.insertLocked(e)
			st.unlock()
			return e, nil
		})
		if err != nil {
			return nil, false, err
		}
		if !shared {
			return e, reused, nil
		}
		// The leader's entry may already have been unlinked or deleted
		// between its insertion and this wake-up; re-check under the lock
		// and fall back to a fresh attempt.
		st.mu.Lock()
		e = st.acquireLocked(e)
		st.unlock()
		if e != nil {
			return e, true, nil
		}
	}
}

// adopt inserts a session rehydrated from a snapshot under its original ID,
// so clients holding the ID across a server restart keep working. If the ID
// is (again) in the store — a concurrent rehydration won — the existing
// entry is returned with adopted=false. The returned entry is acquired; the
// caller must release it.
func (st *sessionStore) adopt(id, hash string, edited bool, sess *aapsm.Session) (ent *sessionEntry, adopted bool) {
	st.reserve(id)
	st.mu.Lock()
	if e := st.acquireLocked(st.byID[id]); e != nil {
		st.unlock()
		return e, false
	}
	ent = st.newEntryLocked(id, hash, sess)
	ent.edited = edited
	st.insertLocked(ent)
	st.unlock()
	return ent, true
}

// reserve advances the ID sequence past id. IDs are "<hash12>-<seq>", and a
// restarted process starts over at seq 0, so every ID a snapshot still
// holds must be reserved before new IDs are minted, or a fresh session could
// take a dormant session's ID and overwrite its snapshot.
func (st *sessionStore) reserve(id string) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return
	}
	n, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil {
		return
	}
	st.mu.Lock()
	st.seq = max(st.seq, n)
	st.mu.Unlock()
}

// get returns the entry stored for id, refreshing its TTL and LRU position
// and taking it back if it was leaving. The returned entry is acquired; the
// caller must release it.
func (st *sessionStore) get(id string) (*sessionEntry, bool) {
	st.mu.Lock()
	e := st.acquireLocked(st.byID[id])
	st.unlock()
	return e, e != nil
}

// release drops one in-flight reference; the last release of a leaving
// entry runs its eviction callback.
func (st *sessionStore) release(e *sessionEntry) {
	st.mu.Lock()
	e.refs--
	if e.leaving != "" {
		st.due = append(st.due, e)
	}
	st.unlock()
}

// markEdited drops the entry from the hash index: its layout has diverged
// from the content it was created from. It takes the entry, not the ID, so
// an edit landing on a leaving entry flips the flag its eviction snapshot
// is stored under.
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

// unpin lifts the persistence pin after a successful snapshot write; the
// entry resumes the normal LRU/TTL lifecycle, and the store, which the pin
// may have held over capacity, is trimmed back to it.
func (st *sessionStore) unpin(e *sessionEntry) {
	st.mu.Lock()
	if e.pinned {
		e.pinned = false
		st.trimLocked()
	}
	st.unlock()
}

// pinnedCount returns how many entries are pinned (readiness and metrics:
// non-zero means persistence is degraded). Pinned entries are never leaving,
// so they are all in the LRU list.
func (st *sessionStore) pinnedCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for el := st.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*sessionEntry).pinned {
			n++
		}
	}
	return n
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
// no stored entry holds the hash — acquired for the caller, and trims the
// store back to capacity. The store mutex must be held.
func (st *sessionStore) insertLocked(e *sessionEntry) {
	st.byID[e.ID] = e
	if !e.edited && st.byHash[e.Hash] == nil {
		st.byHash[e.Hash] = e
	}
	e.elem = st.lru.PushFront(e)
	e.expires = st.now().Add(st.ttl)
	e.refs++
	st.trimLocked()
}

// pristine returns the pristine session stored for hash, acquired, or nil.
func (st *sessionStore) pristine(hash string) *sessionEntry {
	st.mu.Lock()
	e := st.acquireLocked(st.byHash[hash])
	st.unlock()
	return e
}

// acquireLocked takes a reference on e, refreshing its TTL and LRU
// position, when e is non-nil and still in the store; otherwise it returns
// nil. A leaving entry is taken back into the LRU list, which may trim
// another entry. The store mutex must be held.
func (st *sessionStore) acquireLocked(e *sessionEntry) *sessionEntry {
	if e == nil || st.byID[e.ID] != e {
		return nil
	}
	e.refs++
	e.expires = st.now().Add(st.ttl)
	if e.leaving == "" {
		st.lru.MoveToFront(e.elem)
		return e
	}
	e.leaving = ""
	e.retaken = e.firing
	e.elem = st.lru.PushFront(e)
	st.trimLocked()
	return e
}

// hold acquires one extra reference on an already-held entry (batch runners
// that outlive the request that enqueued the work). Pair with release.
func (st *sessionStore) hold(e *sessionEntry) {
	st.mu.Lock()
	e.refs++
	st.mu.Unlock()
}

// delete unlinks the entry stored for id at once, held or leaving, and
// returns it (nil when the id is not stored). The caller owns what follows:
// metrics and the removal of the session's snapshot.
func (st *sessionStore) delete(id string) *sessionEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.byID[id]
	if e == nil {
		return nil
	}
	if e.leaving == "" {
		st.lru.Remove(e.elem)
	}
	e.pinned = false
	st.unlinkLocked(e)
	return e
}

// sweep marks every expired entry leaving; the server calls it periodically
// so idle sessions release memory. It is the only place expiry is enforced.
func (st *sessionStore) sweep() {
	st.mu.Lock()
	for el := st.lru.Back(); el != nil; {
		prev := el.Prev()
		if e := el.Value.(*sessionEntry); st.expiredLocked(e) {
			st.leaveLocked(e, evictTTL)
		}
		el = prev
	}
	st.unlock()
}

// snapshotEntries returns every stored entry acquired, leaving ones
// included, for flush loops; the caller must release each one.
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

// len returns the live session count: the entries in the LRU list, which
// excludes leaving ones.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len()
}

// indexed reports whether e is still in the store (not deleted, not
// unlinked after its eviction).
func (st *sessionStore) indexed(e *sessionEntry) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.byID[e.ID] == e
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

// trimLocked marks least recently used entries leaving until the LRU list
// holds at most capacity entries. Pinned entries are skipped — they cannot
// be persisted, so evicting them would lose work; the store runs over
// capacity until they unpin.
func (st *sessionStore) trimLocked() {
	for el := st.lru.Back(); el != nil && st.lru.Len() > st.capacity; {
		prev := el.Prev()
		if e := el.Value.(*sessionEntry); !e.pinned {
			st.leaveLocked(e, evictLRU)
		}
		el = prev
	}
}

// leaveLocked moves e out of the LRU list and queues its eviction callback.
func (st *sessionStore) leaveLocked(e *sessionEntry, why evictReason) {
	st.lru.Remove(e.elem)
	e.elem = nil
	e.leaving = why
	st.due = append(st.due, e)
}

// unlinkLocked drops e, already out of the LRU list, from both indexes.
func (st *sessionStore) unlinkLocked(e *sessionEntry) {
	delete(st.byID, e.ID)
	if st.byHash[e.Hash] == e {
		delete(st.byHash, e.Hash)
	}
}

// unlock releases st.mu after running, one at a time and outside the
// mutex, the eviction callbacks that came due while it was held: those of
// leaving entries that no request holds and whose callback is not already
// running. A failed write pins the entry in place (back in the LRU list if
// it is still leaving); a success unlinks it unless a lookup took it back
// or a request holds it meanwhile, and a deleted entry is left alone.
//
//aapsmvet:holds mu
func (st *sessionStore) unlock() {
	for len(st.due) > 0 {
		e := st.due[len(st.due)-1]
		st.due = st.due[:len(st.due)-1]
		if e.leaving == "" || e.refs > 0 || e.firing || st.byID[e.ID] != e {
			continue
		}
		why := e.leaving
		e.firing = true
		st.mu.Unlock()
		ok := st.onEvict(e, why)
		st.mu.Lock()
		retaken := e.retaken
		e.firing, e.retaken = false, false
		switch {
		case st.byID[e.ID] != e:
		case !ok:
			e.pinned = true
			if e.leaving != "" {
				e.leaving = ""
				e.elem = st.lru.PushFront(e)
			}
		case !retaken && e.refs == 0:
			st.unlinkLocked(e)
		case e.leaving != "":
			st.due = append(st.due, e) // held or marked again: due once more
		}
	}
	st.mu.Unlock()
}
