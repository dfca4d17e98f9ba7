package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timed out waiting for " + msg)
}

// TestEvictionWriteFailurePinsSession: a session whose eviction-time
// snapshot write fails must stay in memory (pinned, over capacity) and keep
// serving, the store must report degraded on /readyz while /healthz stays
// green, and a later successful write must unpin it.
func TestEvictionWriteFailurePinsSession(t *testing.T) {
	fs := persist.NewFaultStore(persist.NewMemStore(), persist.FaultConfig{})
	srv, tc := newTestServer(t, Config{
		Engine:        persistEngine(),
		StoreCapacity: 1,
		Snapshots:     fs,
		FlushInterval: -1, // no background recovery: observe the degraded state deterministically
	})

	var a createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(60)), 200), &a); err != nil {
		t.Fatal(err)
	}
	// Capacity 1: the next create evicts a, whose snapshot write is forced
	// to fail.
	fs.FailNextPuts(1, nil)
	tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(61)), 200)

	if n := srv.store.pinnedCount(); n != 1 {
		t.Fatalf("pinned sessions = %d, want 1", n)
	}
	if n := srv.Sessions(); n != 2 {
		t.Fatalf("live sessions = %d, want 2 (pinned entry runs over capacity)", n)
	}
	// The pinned session still serves.
	tc.must("GET", "/v1/sessions/"+a.ID, nil, 200)

	// Liveness green, readiness degraded.
	tc.must("GET", "/healthz", nil, 200)
	var ready readyResponse
	if err := json.Unmarshal(tc.must("GET", "/readyz", nil, 503), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "degraded" || ready.Pinned != 1 || !strings.Contains(ready.StoreError, "injected") {
		t.Fatalf("readyz = %+v", ready)
	}
	metrics := string(tc.must("GET", "/metrics", nil, 200))
	for _, want := range []string{
		"aapsmd_snapshot_write_errors_total 1",
		"aapsmd_sessions_pinned 1",
		"aapsmd_ready 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// With a negative FlushInterval nothing retries in the background: time
	// and read traffic leave the session pinned and the server degraded.
	time.Sleep(20 * time.Millisecond)
	tc.must("GET", "/v1/sessions/"+a.ID, nil, 200)
	if n := srv.store.pinnedCount(); n != 1 {
		t.Fatalf("pinned sessions without a flush = %d, want 1", n)
	}
	tc.must("GET", "/readyz", nil, 503)

	// An explicit flush succeeds (the forced-failure window is spent),
	// unpins the session, and restores readiness.
	tc.must("POST", "/v1/sessions/"+a.ID+"/flush", nil, 200)
	if n := srv.store.pinnedCount(); n != 0 {
		t.Fatalf("pinned sessions after recovery = %d, want 0", n)
	}
	tc.must("GET", "/readyz", nil, 200)
}

// hasSnapshot reports whether store lists a snapshot of session id.
func hasSnapshot(store persist.Store, id string) bool {
	refs, _ := store.List()
	for _, r := range refs {
		if r.ID == id {
			return true
		}
	}
	return false
}

// TestEvictionWriteFailureRecoversOnFlush: a failed eviction write recovers
// on its own — the periodic flush rewrites the pinned session until the
// store accepts the snapshot, then the pin lifts.
func TestEvictionWriteFailureRecoversOnFlush(t *testing.T) {
	inner := persist.NewMemStore()
	fs := persist.NewFaultStore(inner, persist.FaultConfig{})
	srv, tc := newTestServer(t, Config{
		Engine:        persistEngine(),
		StoreCapacity: 1,
		Snapshots:     fs,
		FlushInterval: 5 * time.Millisecond,
	})

	// Every write fails from before a exists until the store is cleared
	// below. So no flush tick stores a first (an eviction whose bytes are
	// already stored needs no write), and the eviction of a writes and fails
	// however the flush ticks interleave with the creates.
	fs.SetConfig(persist.FaultConfig{WriteFail: 1})
	var a createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(62)), 200), &a); err != nil {
		t.Fatal(err)
	}
	tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(63)), 200)
	// A flush sweep holding a delays its eviction to the sweep's release.
	waitFor(t, 5*time.Second, func() bool {
		return srv.store.pinnedCount() == 1
	}, "the failed eviction to pin the session")
	// Let a few sweeps fail. The count includes the second session's failed
	// flushes, so it shows only that the sweeps run against the failing
	// store; the unpin and the stored snapshot below show that a was retried.
	waitFor(t, 5*time.Second, func() bool {
		return srv.metrics.snapshotWriteErrors.Load() >= 3
	}, "periodic flushes to fail against the store")
	if srv.Ready() {
		t.Fatal("server ready while every snapshot write fails")
	}

	fs.SetConfig(persist.FaultConfig{})
	waitFor(t, 5*time.Second, func() bool {
		return srv.store.pinnedCount() == 0 && hasSnapshot(inner, a.ID)
	}, "the periodic flush to land the snapshot and unpin")
	if !srv.Ready() {
		t.Fatal("server not ready after the store recovered")
	}
}

// TestFlushAllRetriesFailedWrites: a FlushAll sweep against a failing store
// leaves the server unready, and the next sweep persists every session and
// restores readiness.
func TestFlushAllRetriesFailedWrites(t *testing.T) {
	inner := persist.NewMemStore()
	fs := persist.NewFaultStore(inner, persist.FaultConfig{})
	srv, tc := newTestServer(t, Config{
		Engine:        persistEngine(),
		Snapshots:     fs,
		FlushInterval: -1,
	})
	const n = 3
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		var c createResponse
		if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(64+i)), 200), &c); err != nil {
			t.Fatal(err)
		}
		ids[i] = c.ID
	}
	fs.FailNextPuts(n, nil) // the whole sweep fails once
	srv.FlushAll()
	if got := srv.metrics.snapshotWriteErrors.Load(); got != n {
		t.Fatalf("snapshot write errors after failed sweep = %d, want %d", got, n)
	}
	if srv.Ready() {
		t.Fatal("server ready after a failed flush sweep")
	}
	srv.FlushAll()
	if refs, err := inner.List(); err != nil || len(refs) != n {
		t.Fatalf("snapshots after the second sweep = %v, %v; want %d", refs, err, n)
	}
	if !srv.Ready() {
		t.Fatal("server not ready after the second sweep persisted every session")
	}
	for _, id := range ids {
		if !hasSnapshot(inner, id) {
			t.Fatalf("snapshot of session %s missing", id)
		}
	}
}

// TestFlushEndpointReportsWriteFailure: the flush endpoint must surface a
// failed snapshot write as a typed 500 with the store's error detail, and
// the periodic flush must then land the checkpoint.
func TestFlushEndpointReportsWriteFailure(t *testing.T) {
	inner := persist.NewMemStore()
	fs := persist.NewFaultStore(inner, persist.FaultConfig{})
	srv, tc := newTestServer(t, Config{
		Engine:        persistEngine(),
		Snapshots:     fs,
		FlushInterval: 5 * time.Millisecond,
	})
	var c createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(67)), 200), &c); err != nil {
		t.Fatal(err)
	}
	// Every write fails until cleared, so a flush tick cannot take the
	// failure meant for the endpoint.
	fs.SetConfig(persist.FaultConfig{WriteFail: 1})
	var eb errorBody
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions/"+c.ID+"/flush", nil, 500), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "snapshot_failed" || !strings.Contains(eb.Error.Message, "injected") {
		t.Fatalf("flush failure error = %+v", eb.Error)
	}
	if srv.Ready() {
		t.Fatal("server ready after a failed checkpoint")
	}
	// The periodic flush lands the checkpoint without further client action.
	fs.SetConfig(persist.FaultConfig{})
	waitFor(t, 5*time.Second, func() bool {
		return srv.Ready() && hasSnapshot(inner, c.ID)
	}, "the periodic flush to land the checkpoint")
	tc.must("POST", "/v1/sessions/"+c.ID+"/flush", nil, 200)
}

// TestGlobalAdmissionControl: past MaxInflight, requests shed with a typed
// 429 + Retry-After; probes stay exempt; a freed slot admits again; a
// request that had to queue reports its wait.
func TestGlobalAdmissionControl(t *testing.T) {
	srv, tc := newTestServer(t, Config{
		Engine:      persistEngine(),
		MaxInflight: 1,
		QueueWait:   -1, // shed immediately: no timing in the saturation assertions
	})
	body := layoutText(t, loadLayout(70))

	// Saturate the single slot from outside a request.
	srv.sem <- struct{}{}
	tc.must("GET", "/healthz", nil, 200) // probes exempt
	tc.must("GET", "/readyz", nil, 200)
	resp, err := http.Get(tc.base + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request = %d, want 429", resp.StatusCode)
	}
	// With no observed queue waits yet the advice floors at 1 second.
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want the 1s floor", resp.Header.Get("Retry-After"))
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "overloaded" {
		t.Fatalf("shed error = %+v", eb.Error)
	}
	if srv.metrics.shedGlobal.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", srv.metrics.shedGlobal.Load())
	}
	// Retry-After tracks observed saturation: after clients have been seen
	// queueing ~4.2s, shed responses must advise a matching backoff (rounded
	// up), not a hardcoded constant.
	srv.metrics.noteQueueWait(4200 * time.Millisecond)
	srv.metrics.noteQueueWait(4200 * time.Millisecond)
	srv.metrics.noteQueueWait(4200 * time.Millisecond)
	resp2, err := http.Get(tc.base + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second saturated request = %d, want 429", resp2.StatusCode)
	}
	if ra := resp2.Header.Get("Retry-After"); ra == "1" || ra == "" {
		t.Fatalf("Retry-After = %q after 4.2s observed queue waits, want it derived from the waits", ra)
	}
	<-srv.sem
	tc.must("POST", "/v1/sessions", body, 200)
	metrics := string(tc.must("GET", "/metrics", nil, 200))
	if !strings.Contains(metrics, `aapsmd_requests_shed_total{scope="global"} 2`) {
		t.Error("metrics missing the global shed count")
	}
}

// TestClientGoneWhileQueued: a request whose client disconnects while
// queueing for an admission slot is answered without Retry-After and counted
// under scope="client_gone" — NOT scope="global" — so disconnect waves do
// not inflate the overload signal.
func TestClientGoneWhileQueued(t *testing.T) {
	srv := New(Config{
		Engine:      persistEngine(),
		MaxInflight: 1,
		QueueWait:   5 * time.Second,
	})
	t.Cleanup(srv.Close)
	srv.sem <- struct{}{} // saturate: the request must take the queue path
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the queue wait starts
	req := httptest.NewRequest("GET", "/v1/sessions/nope", nil).WithContext(ctx)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("cancelled queued request = %d, want 429", rr.Code)
	}
	if ra := rr.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("Retry-After = %q for a gone client, want no header (nobody is listening)", ra)
	}
	var eb errorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "client_gone" {
		t.Fatalf("cancelled shed error = %+v, want code client_gone", eb.Error)
	}
	if n := srv.metrics.shedGlobal.Load(); n != 0 {
		t.Fatalf("global shed counter = %d after a client-gone shed, want 0", n)
	}
	if n := srv.metrics.shedClientGone.Load(); n != 1 {
		t.Fatalf("client_gone shed counter = %d, want 1", n)
	}
	<-srv.sem
	rr2 := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr2, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr2.Body.String(), `aapsmd_requests_shed_total{scope="client_gone"} 1`) {
		t.Error("metrics missing the client_gone shed count")
	}
}

// TestAdmissionQueueWait: a saturated server admits a queued request once a
// slot frees within QueueWait, reporting the wait in a header and the
// queue-wait summary.
func TestAdmissionQueueWait(t *testing.T) {
	srv, tc := newTestServer(t, Config{
		Engine:      persistEngine(),
		MaxInflight: 1,
		QueueWait:   2 * time.Second,
	})
	srv.sem <- struct{}{}
	go func() {
		time.Sleep(30 * time.Millisecond)
		<-srv.sem
	}()
	resp, err := http.Get(tc.base + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("queued request = %d, want 404 after admission", resp.StatusCode)
	}
	if resp.Header.Get("X-Aapsmd-Queue-Wait") == "" {
		t.Fatal("admitted-after-wait response missing X-Aapsmd-Queue-Wait")
	}
	if srv.metrics.queueWaitCount.Load() != 1 {
		t.Fatalf("queue wait count = %d, want 1", srv.metrics.queueWaitCount.Load())
	}
}

// TestPerSessionAdmissionControl: one session at its concurrent-request cap
// sheds with 429 session_busy while other sessions keep serving.
func TestPerSessionAdmissionControl(t *testing.T) {
	srv, tc := newTestServer(t, Config{
		Engine:             persistEngine(),
		MaxSessionInflight: 1,
		QueueWait:          -1, // shed immediately: no timing in the saturation assertions
	})
	var a, b createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(71)), 200), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(72)), 200), &b); err != nil {
		t.Fatal(err)
	}
	// Occupy a's one slot the way an in-flight handler would.
	ent, ok := srv.store.get(a.ID)
	if !ok {
		t.Fatal("session a not live")
	}
	ent.slots <- struct{}{}
	var eb errorBody
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+a.ID, nil, 429), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "session_busy" {
		t.Fatalf("busy error = %+v", eb.Error)
	}
	tc.must("GET", "/v1/sessions/"+b.ID, nil, 200) // other sessions unaffected
	<-ent.slots
	srv.store.release(ent)
	tc.must("GET", "/v1/sessions/"+a.ID, nil, 200)
	if srv.metrics.shedSession.Load() != 1 {
		t.Fatalf("session shed counter = %d, want 1", srv.metrics.shedSession.Load())
	}
}

// TestSessionAdmissionQueueWait: a session at its concurrent-request cap no
// longer sheds immediately — the request queues with the same bounded wait
// as the global semaphore and is admitted once the slot frees.
func TestSessionAdmissionQueueWait(t *testing.T) {
	srv, tc := newTestServer(t, Config{
		Engine:             persistEngine(),
		MaxSessionInflight: 1,
		QueueWait:          2 * time.Second,
	})
	var a createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(75)), 200), &a); err != nil {
		t.Fatal(err)
	}
	ent, ok := srv.store.get(a.ID)
	if !ok {
		t.Fatal("session a not live")
	}
	defer srv.store.release(ent)
	ent.slots <- struct{}{}
	go func() {
		time.Sleep(30 * time.Millisecond)
		<-ent.slots
	}()
	resp, err := http.Get(tc.base + "/v1/sessions/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queued session request = %d, want 200 after the slot frees", resp.StatusCode)
	}
	if resp.Header.Get("X-Aapsmd-Queue-Wait") == "" {
		t.Fatal("session request admitted after queueing is missing X-Aapsmd-Queue-Wait")
	}
	if srv.metrics.shedSession.Load() != 0 {
		t.Fatalf("session shed counter = %d, want 0 (request queued, not shed)", srv.metrics.shedSession.Load())
	}
}

// TestHandlerPanicRecovery: a panicking handler answers a typed 500 and
// bumps the panic counter instead of killing the process.
func TestHandlerPanicRecovery(t *testing.T) {
	srv := New(Config{Engine: persistEngine()})
	t.Cleanup(srv.Close)
	h := srv.route("boom", false, func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/boom", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rr.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "panic" || !strings.Contains(eb.Error.Message, "kaboom") {
		t.Fatalf("panic error = %+v", eb.Error)
	}
	if srv.metrics.panicsHandler.Load() != 1 {
		t.Fatalf("handler panic counter = %d, want 1", srv.metrics.panicsHandler.Load())
	}
}

// TestShardPanicQuarantinesSession: an injected shard-solver panic answers a
// typed 500 for that session only — the daemon, its probes, and every other
// session keep working, and the poisoned session repeats the same 500
// without re-running the solver.
func TestShardPanicQuarantinesSession(t *testing.T) {
	hook := func() { panic("injected shard panic") }
	core.FaultHook.Store(&hook)
	t.Cleanup(func() { core.FaultHook.Store(nil) })

	srv, tc := newTestServer(t, Config{Engine: persistEngine()})
	var a createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(73)), 200), &a); err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+a.ID+"/detect", nil, 500), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "panic" || eb.Error.Stage != "detect" {
		t.Fatalf("shard panic error = %+v", eb.Error)
	}
	// Quarantined, not crashed: probes green, the session answers the same
	// memoized 500, and a fresh session (fault cleared) works.
	tc.must("GET", "/healthz", nil, 200)
	tc.must("GET", "/v1/sessions/"+a.ID+"/detect", nil, 500)
	core.FaultHook.Store(nil)
	var b createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(74)), 200), &b); err != nil {
		t.Fatal(err)
	}
	tc.must("GET", "/v1/sessions/"+b.ID+"/detect", nil, 200)
	if n := srv.metrics.panicsShard.Load(); n != 2 {
		t.Fatalf("shard panic counter = %d, want 2 (one per quarantined response)", n)
	}
	metrics := string(tc.must("GET", "/metrics", nil, 200))
	if !strings.Contains(metrics, `aapsmd_panics_total{scope="shard"} 2`) {
		t.Error("metrics missing the shard panic count")
	}
}

// TestReadyzDraining: /readyz flips with BeginDrain like /healthz does.
func TestReadyzDraining(t *testing.T) {
	srv, tc := newTestServer(t, Config{Engine: persistEngine()})
	tc.must("GET", "/readyz", nil, 200)
	srv.BeginDrain()
	var ready readyResponse
	if err := json.Unmarshal(tc.must("GET", "/readyz", nil, 503), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "draining" {
		t.Fatalf("readyz while draining = %+v", ready)
	}
}
