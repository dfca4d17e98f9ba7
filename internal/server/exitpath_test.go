package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
)

// gatedStore is a persist.Store whose next Put, once armed, blocks until the
// test opens the gate, so a test can act while a snapshot write is in
// flight. entered receives one value when the gated Put starts.
type gatedStore struct {
	persist.Store
	entered chan struct{}

	mu   sync.Mutex
	gate chan struct{} // taken by the next Put; nil when disarmed
}

func newGatedStore() *gatedStore {
	return &gatedStore{Store: persist.NewMemStore(), entered: make(chan struct{}, 1)}
}

// arm makes the next Put block until open is called; open may be called
// more than once, so a test can defer it against an early failure.
func (g *gatedStore) arm() (open func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

func (g *gatedStore) Put(ref persist.Ref, data []byte) error {
	g.mu.Lock()
	gate := g.gate
	g.gate = nil
	g.mu.Unlock()
	if gate != nil {
		g.entered <- struct{}{}
		<-gate
	}
	return g.Store.Put(ref, data)
}

// async runs one request on its own goroutine and delivers its status code
// (0 when the request itself failed, reported with t.Error).
func async(tc *testClient, method, path string, body []byte) <-chan int {
	done := make(chan int, 1)
	go func() {
		code := 0
		req, err := http.NewRequest(method, tc.base+path, bytes.NewReader(body))
		if err == nil {
			var resp *http.Response
			if resp, err = tc.c.Do(req); err == nil {
				code = resp.StatusCode
				resp.Body.Close()
			}
		}
		if err != nil {
			tc.t.Error(err)
		}
		done <- code
	}()
	return done
}

// createSession posts layout i and returns the created session.
func createSession(t *testing.T, tc *testClient, i int) createResponse {
	t.Helper()
	var c createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(i)), 200), &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGetDuringEvictionWrite: a session whose eviction write is in flight is
// still the live session. A GET then serves it with its latest edit — not
// an older snapshot restored into a second copy.
func TestGetDuringEvictionWrite(t *testing.T) {
	gs := newGatedStore()
	srv, tc := newTestServer(t, Config{Engine: persistEngine(), StoreCapacity: 1, Snapshots: gs, FlushInterval: -1})
	a := createSession(t, tc, 70)
	base := "/v1/sessions/" + a.ID
	tc.must("POST", base+"/flush", nil, 200) // an older snapshot a restore could serve
	tc.must("POST", base+"/edits", encodeJSON(t, moveOp(loadLayout(70), 0)), 200)
	want := tc.must("GET", base+"/layout", nil, 200)

	open := gs.arm()
	defer open()
	created := async(tc, "POST", "/v1/sessions", layoutText(t, loadLayout(71))) // evicts a
	<-gs.entered
	got := tc.must("GET", base+"/layout", nil, 200)
	open()
	if code := <-created; code != 200 {
		t.Fatalf("create = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("GET during the eviction write served a layout without the session's edit")
	}
	if n := srv.metrics.snapshotRestores.Load(); n != 0 {
		t.Errorf("snapshot restores = %d, want 0 (the session never left)", n)
	}
}

// TestEditReachesEvictedHeldSession: an edit posted to a session that was
// evicted while a request holds it lands on the held entry — the one
// session — instead of on a copy restored from its snapshot.
func TestEditReachesEvictedHeldSession(t *testing.T) {
	srv, tc := newTestServer(t, Config{
		Engine: persistEngine(), StoreCapacity: 1, Snapshots: persist.NewMemStore(), FlushInterval: -1,
	})
	a := createSession(t, tc, 72)
	base := "/v1/sessions/" + a.ID
	tc.must("POST", base+"/flush", nil, 200)
	ent, ok := srv.store.get(a.ID)
	if !ok {
		t.Fatal("created session not live")
	}
	defer srv.store.release(ent)
	createSession(t, tc, 73) // capacity 1: evicts the held session
	tc.must("POST", base+"/edits", encodeJSON(t, moveOp(loadLayout(72), 0)), 200)
	if n := ent.Sess.Stats().Edits; n != 1 {
		t.Errorf("held session saw %d edits, want 1 (the edit went to a second copy)", n)
	}
	if n := srv.metrics.snapshotRestores.Load(); n != 0 {
		t.Errorf("snapshot restores = %d, want 0", n)
	}
}

// TestFlushAfterFailedEvictionWritesOnce: after a failed eviction write pins
// a session and the store heals, one FlushAll writes each of the two
// unchanged sessions once. The trim that lifting the pin starts evicts a
// session the same pass has written, and that eviction finds its bytes
// already stored.
func TestFlushAfterFailedEvictionWritesOnce(t *testing.T) {
	fs := persist.NewFaultStore(persist.NewMemStore(), persist.FaultConfig{})
	srv, tc := newTestServer(t, Config{Engine: persistEngine(), StoreCapacity: 1, Snapshots: fs, FlushInterval: -1})
	createSession(t, tc, 74)
	fs.FailNextPuts(1, nil)
	createSession(t, tc, 75) // evicts the first session; its write fails
	if n := srv.store.pinnedCount(); n != 1 {
		t.Fatalf("pinned sessions = %d, want 1", n)
	}
	before := fs.Stats().Puts
	srv.FlushAll()
	if n := fs.Stats().Puts - before; n > 2 {
		t.Errorf("FlushAll issued %d snapshot writes for 2 unchanged sessions, want at most 2", n)
	}
	if live, pinned := srv.Sessions(), srv.store.pinnedCount(); live != 1 || pinned != 0 {
		t.Errorf("after FlushAll: live %d, pinned %d; want 1, 0", live, pinned)
	}
}

// TestFlushEndpointOrderedAfterOlderWrite: a flush requested while an older
// FlushAll write of the same session is in flight is what the snapshot
// store keeps, not the older bytes.
func TestFlushEndpointOrderedAfterOlderWrite(t *testing.T) {
	gs := newGatedStore()
	srv, tc := newTestServer(t, Config{Engine: persistEngine(), Snapshots: gs, FlushInterval: -1})
	a := createSession(t, tc, 76)
	base := "/v1/sessions/" + a.ID

	open := gs.arm()
	defer open()
	flushedAll := make(chan struct{})
	go func() { srv.FlushAll(); close(flushedAll) }()
	<-gs.entered // the pre-edit snapshot is in flight
	tc.must("POST", base+"/edits", encodeJSON(t, moveOp(loadLayout(76), 0)), 200)
	flushed := async(tc, "POST", base+"/flush", nil)
	// The flush has no observable event while it waits for the older
	// write; a flush that did not wait would answer within this bound and
	// then be overwritten by the older write.
	code := waitCode(flushed)
	open()
	<-flushedAll
	if code == 0 {
		code = <-flushed
	}
	if code != 200 {
		t.Fatalf("flush = %d, want 200", code)
	}
	refs, err := gs.List()
	if err != nil || len(refs) != 1 {
		t.Fatalf("stored snapshots = %v, %v", refs, err)
	}
	data, err := gs.Get(refs[0])
	if err != nil {
		t.Fatal(err)
	}
	sess, err := persistEngine().RestoreSession(t.Context(), data)
	if err != nil {
		t.Fatal(err)
	}
	want := tc.must("GET", base+"/layout", nil, 200)
	if got := layoutText(t, sess.SnapshotLayout()); !bytes.Equal(got, want) {
		t.Error("the store kept the older FlushAll snapshot, not the flushed one")
	}
}

// TestDeleteDuringEvictionWrite: DELETE of a session whose eviction write is
// in flight deletes the session; its snapshot does not outlive the DELETE,
// so the ID stays gone.
func TestDeleteDuringEvictionWrite(t *testing.T) {
	gs := newGatedStore()
	srv, tc := newTestServer(t, Config{Engine: persistEngine(), StoreCapacity: 1, Snapshots: gs, FlushInterval: -1})
	a := createSession(t, tc, 77)

	open := gs.arm()
	defer open()
	created := async(tc, "POST", "/v1/sessions", layoutText(t, loadLayout(78))) // evicts a
	<-gs.entered
	deleted := async(tc, "DELETE", "/v1/sessions/"+a.ID, nil)
	// The DELETE has unlinked the session once it counts the deletion; it
	// then waits for the write in flight.
	code := 0
	waitFor(t, 5*time.Second, func() bool {
		select {
		case code = <-deleted:
			return true
		default:
			return srv.metrics.sessionsEvicted.del.Load() == 1
		}
	}, "the DELETE to reach the store")
	open()
	if code == 0 {
		code = <-deleted
	}
	if code != 204 {
		t.Fatalf("DELETE during the eviction write = %d, want 204", code)
	}
	if c := <-created; c != 200 {
		t.Fatalf("create = %d", c)
	}
	tc.must("GET", "/v1/sessions/"+a.ID, nil, 404)
	if hasSnapshot(gs, a.ID) {
		t.Error("the deleted session's snapshot is still stored")
	}
}

// waitCode returns the request's status code if it answers within a short
// wait, or 0 when it is still blocked (behind a write in flight).
func waitCode(done <-chan int) int {
	select {
	case code := <-done:
		return code
	case <-time.After(200 * time.Millisecond):
		return 0
	}
}
