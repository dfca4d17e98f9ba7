package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	aapsm "repro"
	"repro/internal/persist"
)

// persistEngine builds the one engine configuration every server in these
// tests shares: snapshots only restore under the configuration they were
// taken with, so the restarted server must match the original.
func persistEngine() *aapsm.Engine {
	return aapsm.NewEngine(aapsm.WithParallelism(2))
}

// moveOp builds a deterministic single-op edit batch moving feature k of the
// original layout. Each step moves a distinct index, so the op stays valid
// and identical no matter which server it is posted to.
func moveOp(l *aapsm.Layout, k int) editsRequest {
	r := l.Features[k].Rect.Translate(aapsm.Point{X: int64(5 * (k + 1)), Y: 3})
	return editsRequest{Ops: []editOp{
		{Op: "move", Index: idx(k), Rect: []int64{r.X0, r.Y0, r.X1, r.Y1}},
	}}
}

// mustClient is the subset of testClient both flavors of test server client
// satisfy.
type mustClient interface {
	must(method, path string, body []byte, wantCode int) []byte
}

// detectBytes fetches a detect response with the one nondeterministic field
// (wall-clock total_ns) zeroed, re-encoded for byte comparison.
func detectBytes(t *testing.T, tc mustClient, id string) []byte {
	t.Helper()
	var dr detectResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+id+"/detect", nil, 200), &dr); err != nil {
		t.Fatal(err)
	}
	dr.Stats.TotalNS = 0
	return encodeJSON(t, dr)
}

// TestKillRestartRehydration is the crash-restart acceptance test: a server
// with a disk snapshot store serves half an edit script, flushes, and is
// killed (no drain, in-memory state discarded). A fresh server over the same
// store directory finishes the script against the original session ID, and
// every stage response must be byte-identical to an uninterrupted oracle
// server driven through the identical request sequence.
func TestKillRestartRehydration(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	openStore := func() persist.Store {
		st, err := persist.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	l := loadLayout(42)
	body := layoutText(t, l)
	const steps = 6
	half := steps / 2

	// Oracle: the same engine configuration, never interrupted.
	_, oc := newTestServer(t, Config{Engine: persistEngine()})
	var ocreated createResponse
	if err := json.Unmarshal(oc.must("POST", "/v1/sessions", body, 200), &ocreated); err != nil {
		t.Fatal(err)
	}

	// Interrupted server, first half of the script.
	srvA := New(Config{Engine: persistEngine(), Snapshots: openStore(), FlushInterval: -1})
	tsA := newTestClientServer(t, srvA)
	var acreated createResponse
	if err := json.Unmarshal(tsA.must("POST", "/v1/sessions", body, 200), &acreated); err != nil {
		t.Fatal(err)
	}
	if acreated.ID != ocreated.ID {
		t.Fatalf("servers assigned different IDs to one layout: %q vs %q", acreated.ID, ocreated.ID)
	}
	id := acreated.ID
	for k := 0; k < half; k++ {
		ops := encodeJSON(t, moveOp(l, k))
		tsA.must("POST", "/v1/sessions/"+id+"/edits", ops, 200)
		oc.must("POST", "/v1/sessions/"+id+"/edits", ops, 200)
		if got, want := detectBytes(t, tsA, id), detectBytes(t, oc, id); !bytes.Equal(got, want) {
			t.Fatalf("step %d detect diverged before the kill:\n got %s\nwant %s", k, got, want)
		}
	}
	// Persist, then die without a drain: everything after the flush endpoint
	// returns is on disk, everything in memory is discarded.
	tsA.must("POST", "/v1/sessions/"+id+"/flush", nil, 200)
	srvA.Close()
	tsA.shutdown()

	// Restarted server over the same store directory, second half.
	srvB, tb := newTestServer(t, Config{Engine: persistEngine(), Snapshots: openStore(), FlushInterval: -1})
	for k := half; k < steps; k++ {
		ops := encodeJSON(t, moveOp(l, k))
		tb.must("POST", "/v1/sessions/"+id+"/edits", ops, 200)
		oc.must("POST", "/v1/sessions/"+id+"/edits", ops, 200)
	}
	if got, want := detectBytes(t, tb, id), detectBytes(t, oc, id); !bytes.Equal(got, want) {
		t.Fatalf("post-restart detect diverged:\n got %s\nwant %s", got, want)
	}
	// Every other stage must match byte-for-byte: these responses carry no
	// timing, so the raw wire bytes compare directly.
	for _, ep := range []string{"/assign", "/correct?include_layout=1", "/drc", "/mask", "/layout", "/svg"} {
		got := tb.must("GET", "/v1/sessions/"+id+ep, nil, 200)
		want := oc.must("GET", "/v1/sessions/"+id+ep, nil, 200)
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged after restart (%d vs %d bytes)", ep, len(got), len(want))
		}
	}
	if n := srvB.metrics.snapshotRestores.Load(); n != 1 {
		t.Errorf("snapshot restores = %d, want 1", n)
	}
	metrics := string(tb.must("GET", "/metrics", nil, 200))
	for _, want := range []string{
		"aapsmd_snapshot_restore_total 1",
		"aapsmd_snapshot_restore_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSnapshotReattachByHash: a pristine snapshot satisfies create-by-hash
// across a restart — re-uploading the same layout reattaches to the restored
// session (same ID, reused, no second detection) instead of re-pipelining.
func TestSnapshotReattachByHash(t *testing.T) {
	store := persist.NewMemStore()
	srvA := New(Config{Engine: persistEngine(), Snapshots: store, FlushInterval: -1})
	tsA := newTestClientServer(t, srvA)
	body := layoutText(t, loadLayout(43))
	var created createResponse
	if err := json.Unmarshal(tsA.must("POST", "/v1/sessions", body, 200), &created); err != nil {
		t.Fatal(err)
	}
	tsA.must("GET", "/v1/sessions/"+created.ID+"/detect", nil, 200)
	srvA.BeginDrain()
	srvA.FlushAll()
	srvA.Close()
	tsA.shutdown()

	_, tb := newTestServer(t, Config{Engine: persistEngine(), Snapshots: store, FlushInterval: -1})
	var again createResponse
	if err := json.Unmarshal(tb.must("POST", "/v1/sessions", body, 200), &again); err != nil {
		t.Fatal(err)
	}
	if !again.Reused || again.ID != created.ID {
		t.Fatalf("create after restart = %+v, want reattach to %q", again, created.ID)
	}
	var info infoResponse
	if err := json.Unmarshal(tb.must("GET", "/v1/sessions/"+created.ID, nil, 200), &info); err != nil {
		t.Fatal(err)
	}
	if info.DetectRuns != 1 {
		t.Errorf("detect runs after restore = %d, want the original 1", info.DetectRuns)
	}
}

// TestFreshUploadAfterRestartGetsNewID: after a restart, a fresh upload of a
// layout whose dormant snapshot is an edited session must not be minted
// that session's ID. The old ID keeps serving the edited session, and the
// new session's writes cannot replace its snapshot.
func TestFreshUploadAfterRestartGetsNewID(t *testing.T) {
	store := persist.NewMemStore()
	srvA := New(Config{Engine: persistEngine(), Snapshots: store, FlushInterval: -1})
	tsA := newTestClientServer(t, srvA)
	l := loadLayout(44)
	body := layoutText(t, l)
	var created createResponse
	if err := json.Unmarshal(tsA.must("POST", "/v1/sessions", body, 200), &created); err != nil {
		t.Fatal(err)
	}
	tsA.must("POST", "/v1/sessions/"+created.ID+"/edits", encodeJSON(t, moveOp(l, 0)), 200)
	tsA.must("POST", "/v1/sessions/"+created.ID+"/flush", nil, 200)
	srvA.Close()
	tsA.shutdown()

	_, tb := newTestServer(t, Config{Engine: persistEngine(), Snapshots: store, FlushInterval: -1})
	var fresh createResponse
	if err := json.Unmarshal(tb.must("POST", "/v1/sessions", body, 200), &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.ID == created.ID || fresh.Reused {
		t.Fatalf("fresh upload after restart = %+v, want a new session, not %q", fresh, created.ID)
	}
	tb.must("POST", "/v1/sessions/"+fresh.ID+"/flush", nil, 200)
	var info infoResponse
	if err := json.Unmarshal(tb.must("GET", "/v1/sessions/"+created.ID, nil, 200), &info); err != nil {
		t.Fatal(err)
	}
	if info.Edits != 1 {
		t.Fatalf("old ID serves a session with %d edits, want the edited session's 1", info.Edits)
	}
}

// TestGDSSessionSurvivesRestart: a session created from a hierarchical GDS
// upload restores from its snapshot alone. The snapshot's layout and
// hierarchy sidecar are all a restart needs to serve the same detection and
// byte-identical GDS exports.
func TestGDSSessionSurvivesRestart(t *testing.T) {
	store := persist.NewMemStore()
	srvA := New(Config{Engine: persistEngine(), Snapshots: store, FlushInterval: -1})
	tsA := newTestClientServer(t, srvA)
	var created createResponse
	if err := json.Unmarshal(tsA.must("POST", "/v1/sessions?format=gds", hierGDS(t, loadLayout(44)), 200), &created); err != nil {
		t.Fatal(err)
	}
	id := created.ID
	endpoints := []string{"/layout?format=gds", "/mask?format=gds"}
	wantDetect := detectBytes(t, tsA, id)
	want := make([][]byte, len(endpoints))
	for i, ep := range endpoints {
		want[i] = tsA.must("GET", "/v1/sessions/"+id+ep, nil, 200)
	}
	tsA.must("POST", "/v1/sessions/"+id+"/flush", nil, 200)
	srvA.Close()
	tsA.shutdown()

	srvB, tb := newTestServer(t, Config{Engine: persistEngine(), Snapshots: store, FlushInterval: -1})
	if got := detectBytes(t, tb, id); !bytes.Equal(got, wantDetect) {
		t.Fatalf("detect diverged after restart:\n got %s\nwant %s", got, wantDetect)
	}
	for i, ep := range endpoints {
		if got := tb.must("GET", "/v1/sessions/"+id+ep, nil, 200); !bytes.Equal(got, want[i]) {
			t.Errorf("%s diverged after restart (%d vs %d bytes)", ep, len(got), len(want[i]))
		}
	}
	if n := srvB.metrics.snapshotRestores.Load(); n != 1 {
		t.Errorf("snapshot restores = %d, want 1", n)
	}
}

// TestEvictionSnapshotCapturesInFlightEdit is the deterministic eviction-race
// regression: a session evicted while a request holds it must not be
// snapshotted until that request finishes, so the eviction snapshot contains
// the in-flight edit and rehydration resumes from it.
func TestEvictionSnapshotCapturesInFlightEdit(t *testing.T) {
	srv, tc := newTestServer(t, Config{
		Engine:        persistEngine(),
		StoreCapacity: 1,
		Snapshots:     persist.NewMemStore(),
		FlushInterval: -1,
	})
	var a createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(44)), 200), &a); err != nil {
		t.Fatal(err)
	}
	// Hold the entry exactly like the session middleware does for an
	// in-flight request.
	ent, ok := srv.store.get(a.ID)
	if !ok {
		t.Fatal("created session not live")
	}
	// Capacity 1: creating another session evicts the held one.
	tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(45)), 200)
	if n := srv.Sessions(); n != 1 {
		t.Fatalf("live sessions = %d after capacity eviction, want 1", n)
	}
	if n := srv.metrics.snapshotWrites.Load(); n != 0 {
		t.Fatalf("snapshot written while a request still held the session (writes = %d)", n)
	}
	// The in-flight request's work lands after the eviction decision.
	srv.store.markEdited(ent)
	if err := ent.Sess.Edit(func(ed *aapsm.LayoutEditor) { ed.Delete(0) }); err != nil {
		t.Fatal(err)
	}
	srv.store.release(ent)
	if n := srv.metrics.snapshotWrites.Load(); n != 1 {
		t.Fatalf("snapshot writes after release = %d, want 1", n)
	}
	// Rehydration must serve the post-edit state.
	var info infoResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+a.ID, nil, 200), &info); err != nil {
		t.Fatal(err)
	}
	if info.Features != a.Features-1 {
		t.Errorf("rehydrated features = %d, want %d (eviction snapshot missed the in-flight edit)",
			info.Features, a.Features-1)
	}
	if n := srv.metrics.snapshotRestores.Load(); n != 1 {
		t.Errorf("snapshot restores = %d, want 1", n)
	}
}

// TestEvictionRehydrationChurn hammers a tiny store with concurrent session
// flows while persistence is on, so eviction, snapshot writes, and
// single-flighted rehydration race continuously under -race. A session is
// unlinked only once its snapshot is stored, so every request finds its
// session (no 404), and each flow ends with exactly its own three moves.
func TestEvictionRehydrationChurn(t *testing.T) {
	const flows, steps = 48, 3
	srv, tc := newTestServer(t, Config{
		Engine:        persistEngine(),
		StoreCapacity: 3,
		Snapshots:     persist.NewMemStore(),
		FlushInterval: -1,
	})
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := loadLayout(100 + i)
			var created createResponse
			code, data := tc.do("POST", "/v1/sessions", layoutText(t, l))
			if code != 200 {
				t.Errorf("flow %d create = %d: %s", i, code, data)
				return
			}
			if err := json.Unmarshal(data, &created); err != nil {
				t.Error(err)
				return
			}
			base := "/v1/sessions/" + created.ID
			oracle := persistEngine().NewSession(l)
			for step := 0; step < steps; step++ {
				op := moveOp(l, step).Ops[0]
				r := aapsm.R(op.Rect[0], op.Rect[1], op.Rect[2], op.Rect[3])
				if err := oracle.Edit(func(ed *aapsm.LayoutEditor) { ed.Move(step, r) }); err != nil {
					t.Error(err)
					return
				}
				for _, req := range []struct {
					method, path string
					body         []byte
				}{
					{"POST", base + "/edits", encodeJSON(t, moveOp(l, step))},
					{"GET", base + "/detect", nil},
				} {
					if code, data := tc.do(req.method, req.path, req.body); code != 200 {
						t.Errorf("flow %d step %d %s = %d: %s", i, step, req.path, code, data)
						return
					}
				}
			}
			code, got := tc.do("GET", base+"/layout", nil)
			if want := layoutText(t, oracle.SnapshotLayout()); code != 200 || !bytes.Equal(got, want) {
				t.Errorf("flow %d final layout (%d) differs from its own %d moves", i, code, steps)
			}
		}(i)
	}
	wg.Wait()
	if srv.metrics.snapshotWrites.Load() == 0 {
		t.Error("no snapshots written under eviction churn")
	}
	if srv.metrics.snapshotRestores.Load() == 0 {
		t.Error("no sessions rehydrated under eviction churn")
	}
	t.Logf("writes=%d restores=%d corrupt=%d evicted-lru=%d",
		srv.metrics.snapshotWrites.Load(), srv.metrics.snapshotRestores.Load(),
		srv.metrics.snapshotCorrupt.Load(), srv.metrics.sessionsEvicted.lru.Load())
}

// TestFlushEndpointWithoutStore: the flush route answers a typed 409 when no
// snapshot store is configured.
func TestFlushEndpointWithoutStore(t *testing.T) {
	_, tc := newTestServer(t, Config{Engine: persistEngine()})
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(46)), 200), &created); err != nil {
		t.Fatal(err)
	}
	data := tc.must("POST", "/v1/sessions/"+created.ID+"/flush", nil, 409)
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "no_snapshot_store" {
		t.Errorf("error = %+v", eb.Error)
	}
}

// TestDeleteRemovesDormantSnapshot: DELETE on a session that lives only as a
// snapshot removes the snapshot, and later requests see a clean 404.
func TestDeleteRemovesDormantSnapshot(t *testing.T) {
	store := persist.NewMemStore()
	srvA := New(Config{Engine: persistEngine(), Snapshots: store, FlushInterval: -1})
	tsA := newTestClientServer(t, srvA)
	var created createResponse
	if err := json.Unmarshal(tsA.must("POST", "/v1/sessions", layoutText(t, loadLayout(47)), 200), &created); err != nil {
		t.Fatal(err)
	}
	tsA.must("POST", "/v1/sessions/"+created.ID+"/flush", nil, 200)
	srvA.Close()
	tsA.shutdown()

	_, tb := newTestServer(t, Config{Engine: persistEngine(), Snapshots: store, FlushInterval: -1})
	// The session is dormant (snapshot only); delete must reach through to it.
	tb.must("DELETE", "/v1/sessions/"+created.ID, nil, 204)
	tb.must("GET", "/v1/sessions/"+created.ID, nil, 404)
	if refs, err := store.List(); err != nil || len(refs) != 0 {
		t.Errorf("store after dormant delete: %v, %v", refs, err)
	}
}

// TestCorruptSnapshotDegradesGracefully: a snapshot that no longer decodes —
// torn by a bit flip, or intact but written by the previous format version —
// is counted, forgotten, and the request answers 404. It is never retried and
// never panics the server.
func TestCorruptSnapshotDegradesGracefully(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func([]byte)
	}{
		{"bit flip", func(data []byte) { data[len(data)/2] ^= 0xff }},
		{"previous version", func(data []byte) {
			// The version follows the 8-byte magic; reseal the checksum so
			// only the version is wrong.
			binary.LittleEndian.PutUint16(data[8:], persist.Version-1)
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := persist.NewMemStore()
			srvA := New(Config{Engine: persistEngine(), Snapshots: store, FlushInterval: -1})
			tsA := newTestClientServer(t, srvA)
			var created createResponse
			if err := json.Unmarshal(tsA.must("POST", "/v1/sessions", layoutText(t, loadLayout(48)), 200), &created); err != nil {
				t.Fatal(err)
			}
			tsA.must("POST", "/v1/sessions/"+created.ID+"/flush", nil, 200)
			srvA.Close()
			tsA.shutdown()

			// Tamper with the stored bytes in place.
			refs, err := store.List()
			if err != nil || len(refs) != 1 {
				t.Fatalf("refs = %v, %v", refs, err)
			}
			data, err := store.Get(refs[0])
			if err != nil {
				t.Fatal(err)
			}
			tc.tamper(data)
			if err := store.Put(refs[0], data); err != nil {
				t.Fatal(err)
			}

			srvB, tb := newTestServer(t, Config{Engine: persistEngine(), Snapshots: store, FlushInterval: -1})
			tb.must("GET", "/v1/sessions/"+created.ID, nil, 404)
			if n := srvB.metrics.snapshotCorrupt.Load(); n != 1 {
				t.Errorf("snapshot corrupt count = %d, want 1", n)
			}
			// The snapshot is forgotten: the retry 404s without touching the
			// store.
			tb.must("GET", "/v1/sessions/"+created.ID, nil, 404)
			if n := srvB.metrics.snapshotCorrupt.Load(); n != 1 {
				t.Errorf("corrupt snapshot retried: count = %d, want 1", n)
			}
		})
	}
}

// newTestClientServer mounts an already-built Server on an httptest server
// the caller can shut down independently (to simulate a process kill).
func newTestClientServer(t *testing.T, srv *Server) *killableClient {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &killableClient{testClient: testClient{t: t, base: ts.URL, c: ts.Client()}, ts: ts}
}

type killableClient struct {
	testClient
	ts *httptest.Server
}

func (kc *killableClient) shutdown() { kc.ts.Close() }
