package server

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	aapsm "repro"
	"repro/internal/persist"
)

// retryClient is a well-behaved chaos-test client: it treats 429 (shed) and
// 504 (timeout) as the only acceptable transient failures and retries them,
// so any other unexpected status is a test failure.
type retryClient struct {
	*testClient
}

func (rc retryClient) must(method, path string, body []byte, wantCode int) []byte {
	rc.t.Helper()
	for i := 0; i < 200; i++ {
		code, data := rc.do(method, path, body)
		if code == 429 || code == 504 {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if code != wantCode {
			rc.t.Fatalf("%s %s = %d, want %d: %s", method, path, code, wantCode, data)
		}
		return data
	}
	rc.t.Fatalf("%s %s: still shedding after 200 retries", method, path)
	return nil
}

// chaosMove is moveOp for arbitrary generated layouts: small seeds can
// produce fewer features than the edit-script length, so the index wraps
// (re-moving a feature to the same absolute rect is valid and
// deterministic).
func chaosMove(l *aapsm.Layout, k int) editsRequest {
	return moveOp(l, k%len(l.Features))
}

// chaosDetectBytes is detectBytes with the session ID neutralized too:
// chaos flows compare sessions across servers whose creation orders (and so
// ID sequence counters) legitimately differ.
func chaosDetectBytes(t *testing.T, tc mustClient, id string) []byte {
	t.Helper()
	var dr detectResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+id+"/detect", nil, 200), &dr); err != nil {
		t.Fatal(err)
	}
	dr.ID, dr.Stats.TotalNS = "", 0
	return encodeJSON(t, dr)
}

// TestChaosLoadOracle is the fault-injection acceptance test: >= 100
// concurrent sessions served while the snapshot store randomly rejects
// writes, then flush sweeps repeated until every session is persisted, more
// edits that are deliberately never persisted, and a kill. The
// restarted daemon must rehydrate every session exactly as flushed — clients
// lose at most the unflushed tail, replay it, and every response must then
// be byte-identical to an uninterrupted oracle server.
func TestChaosLoadOracle(t *testing.T) {
	const (
		sessions  = 100
		writeFail = 0.15
	)
	dir := filepath.Join(t.TempDir(), "snaps")
	openFaulty := func() (*persist.FaultStore, persist.Store) {
		inner, err := persist.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return persist.NewFaultStore(inner, persist.FaultConfig{Seed: 7, WriteFail: writeFail}), inner
	}

	_, oc0 := newTestServer(t, Config{Engine: persistEngine(), StoreCapacity: 2 * sessions})
	oc := retryClient{oc0}

	fsA, innerA := openFaulty()
	srvA := New(Config{
		Engine:        persistEngine(),
		StoreCapacity: 2 * sessions,
		Snapshots:     fsA,
		FlushInterval: -1,
		MaxInflight:   64,
		QueueWait:     2 * time.Second,
	})
	tsA0 := newTestClientServer(t, srvA)
	tsA := retryClient{&tsA0.testClient}

	// Phase A: concurrent create + edit + detect load on both servers, every
	// detect compared byte-for-byte. The store is already lossy here; none of
	// these requests may surface that to clients.
	ids := make([]string, sessions)  // chaos-server session IDs
	oids := make([]string, sessions) // oracle-server session IDs (orderings differ)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := loadLayout(200 + i)
			body := layoutText(t, l)
			var real, want createResponse
			if err := json.Unmarshal(tsA.must("POST", "/v1/sessions", body, 200), &real); err != nil {
				t.Error(err)
				return
			}
			if err := json.Unmarshal(oc.must("POST", "/v1/sessions", body, 200), &want); err != nil {
				t.Error(err)
				return
			}
			ids[i], oids[i] = real.ID, want.ID
			for k := 0; k < 2; k++ {
				ops := encodeJSON(t, chaosMove(l, k))
				tsA.must("POST", "/v1/sessions/"+real.ID+"/edits", ops, 200)
				oc.must("POST", "/v1/sessions/"+want.ID+"/edits", ops, 200)
			}
			if got, want := chaosDetectBytes(t, tsA, real.ID), chaosDetectBytes(t, oc, want.ID); !bytes.Equal(got, want) {
				t.Errorf("flow %d detect diverged under write faults:\n got %s\nwant %s", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Checkpoint: each sweep hits the lossy store and fails for ~writeFail of
	// the sessions; repeated sweeps — the periodic flush's retry — must land
	// every one of them anyway.
	waitFor(t, 15*time.Second, func() bool {
		srvA.FlushAll()
		refs, err := innerA.List()
		return err == nil && len(refs) == sessions
	}, "flush sweeps to persist all sessions through the lossy store")
	if srvA.metrics.snapshotWriteErrors.Load() == 0 {
		t.Fatal("fault injection observed no failures — chaos config inert")
	}
	if metrics := string(tsA.must("GET", "/metrics", nil, 200)); !strings.Contains(metrics, "aapsmd_snapshot_write_errors_total") {
		t.Error("metrics missing aapsmd_snapshot_write_errors_total")
	}

	// Phase B: one more edit per session on both servers, never flushed —
	// this is the "at most one flush interval" of work a crash may lose.
	for i, id := range ids {
		l := loadLayout(200 + i)
		ops := encodeJSON(t, chaosMove(l, 2))
		tsA.must("POST", "/v1/sessions/"+id+"/edits", ops, 200)
		oc.must("POST", "/v1/sessions/"+oids[i]+"/edits", ops, 200)
	}

	// Kill: no drain, no flush — in-memory state (the phase-B edits) is gone.
	srvA.Close()
	tsA0.shutdown()

	// Restart over the same directory, store still lossy. Every session must
	// rehydrate at its flushed state; clients replay the lost tail and end up
	// byte-identical to the never-interrupted oracle.
	fsB, _ := openFaulty()
	srvB, tb0 := newTestServer(t, Config{
		Engine:        persistEngine(),
		StoreCapacity: 2 * sessions,
		Snapshots:     fsB,
		FlushInterval: -1,
	})
	tb := retryClient{tb0}
	for i, id := range ids {
		l := loadLayout(200 + i)
		var info infoResponse
		if err := json.Unmarshal(tb.must("GET", "/v1/sessions/"+id, nil, 200), &info); err != nil {
			t.Fatal(err)
		}
		if info.Edits != 2 {
			t.Fatalf("flow %d rehydrated with %d edits, want the 2 flushed ones", i, info.Edits)
		}
		tb.must("POST", "/v1/sessions/"+id+"/edits", encodeJSON(t, chaosMove(l, 2)), 200)
		if got, want := chaosDetectBytes(t, tb, id), chaosDetectBytes(t, oc, oids[i]); !bytes.Equal(got, want) {
			t.Fatalf("flow %d diverged from oracle after crash-restart-replay:\n got %s\nwant %s", i, got, want)
		}
	}
	if n := srvB.metrics.snapshotRestores.Load(); n != sessions {
		t.Errorf("snapshot restores after restart = %d, want %d", n, sessions)
	}
}

// TestChaosKillDuringSnapshotWrite: a snapshot write torn mid-flight (the
// process dying with a half-written file on a non-atomic filesystem) must be
// reported to the flushing client, swept at restart, and leave the client a
// clean 404-then-recreate path — while an untouched session on the same
// store rehydrates normally.
func TestChaosKillDuringSnapshotWrite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	openStore := func() (*persist.FaultStore, persist.Store) {
		inner, err := persist.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return persist.NewFaultStore(inner, persist.FaultConfig{}), inner
	}

	_, oc := newTestServer(t, Config{Engine: persistEngine()})
	lVictim, lSafe := loadLayout(90), loadLayout(91)

	fs, _ := openStore()
	srvA := New(Config{
		Engine:        persistEngine(),
		Snapshots:     fs,
		FlushInterval: -1, // nothing may quietly repair the torn write before the kill
	})
	tsA := newTestClientServer(t, srvA)
	var victim, safe, ovictim, osafe createResponse
	for _, c := range []struct {
		body         []byte
		into, oracle *createResponse
	}{
		{layoutText(t, lVictim), &victim, &ovictim},
		{layoutText(t, lSafe), &safe, &osafe},
	} {
		if err := json.Unmarshal(tsA.must("POST", "/v1/sessions", c.body, 200), c.into); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(oc.must("POST", "/v1/sessions", c.body, 200), c.oracle); err != nil {
			t.Fatal(err)
		}
	}
	tsA.must("POST", "/v1/sessions/"+victim.ID+"/edits", encodeJSON(t, chaosMove(lVictim, 0)), 200)
	oc.must("POST", "/v1/sessions/"+ovictim.ID+"/edits", encodeJSON(t, chaosMove(lVictim, 0)), 200)
	tsA.must("POST", "/v1/sessions/"+safe.ID+"/edits", encodeJSON(t, chaosMove(lSafe, 0)), 200)
	oc.must("POST", "/v1/sessions/"+osafe.ID+"/edits", encodeJSON(t, chaosMove(lSafe, 0)), 200)

	// The safe session checkpoints cleanly; the victim's flush is torn
	// mid-write and the client is told so.
	tsA.must("POST", "/v1/sessions/"+safe.ID+"/flush", nil, 200)
	fs.TearNextPuts(1)
	var eb errorBody
	if err := json.Unmarshal(tsA.must("POST", "/v1/sessions/"+victim.ID+"/flush", nil, 500), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "snapshot_failed" {
		t.Fatalf("torn flush error = %+v", eb.Error)
	}
	srvA.Close()
	tsA.shutdown()

	// Restart: the startup sweep removes the torn snapshot, so the victim is
	// simply gone (never served corrupt) while the safe session rehydrates.
	fs2, _ := openStore()
	srvB, tb := newTestServer(t, Config{Engine: persistEngine(), Snapshots: fs2, FlushInterval: -1})
	var info infoResponse
	if err := json.Unmarshal(tb.must("GET", "/v1/sessions/"+safe.ID, nil, 200), &info); err != nil {
		t.Fatal(err)
	}
	if info.Edits != 1 {
		t.Fatalf("safe session rehydrated with %d edits, want 1", info.Edits)
	}
	tb.must("GET", "/v1/sessions/"+victim.ID, nil, 404)

	// The client recovers by recreating (under a fresh ID — the old one is
	// gone for good) and replaying its script, which reconverges with the
	// oracle.
	var again createResponse
	if err := json.Unmarshal(tb.must("POST", "/v1/sessions", layoutText(t, lVictim), 200), &again); err != nil {
		t.Fatal(err)
	}
	if again.Reused {
		t.Fatalf("recreate after torn-write loss reported reused: %+v", again)
	}
	tb.must("POST", "/v1/sessions/"+again.ID+"/edits", encodeJSON(t, chaosMove(lVictim, 0)), 200)
	for _, pair := range [][2]string{{again.ID, ovictim.ID}, {safe.ID, osafe.ID}} {
		if got, want := chaosDetectBytes(t, tb, pair[0]), chaosDetectBytes(t, oc, pair[1]); !bytes.Equal(got, want) {
			t.Fatalf("session %s diverged after torn-write recovery:\n got %s\nwant %s", pair[0], got, want)
		}
	}
	if n := srvB.metrics.snapshotRestores.Load(); n != 1 {
		t.Errorf("snapshot restores = %d, want 1 (the safe session)", n)
	}
	if n := srvB.metrics.snapshotCorrupt.Load(); n != 0 {
		t.Errorf("corrupt snapshots served to the restarted daemon = %d, want 0 (sweep should have removed them)", n)
	}
}
