package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	aapsm "repro"
	"repro/internal/bench"
	"repro/internal/gds"
	"repro/internal/geom"
)

// idx builds the explicit index pointer move/del edit ops require.
func idx(i int) *int { return &i }

// loadLayout generates a small seeded layout with dense clusters (so
// detection finds real conflicts) unique to i.
func loadLayout(i int) *aapsm.Layout {
	p := bench.DefaultParams(int64(1000+i), 1, 6)
	p.DenseClusterEvery = 2
	p.DenseClusterSize = 3
	return bench.Generate(fmt.Sprintf("load-%03d", i), p)
}

func layoutText(t *testing.T, l *aapsm.Layout) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := aapsm.WriteLayoutText(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeJSON marshals exactly like the handlers do (json.Encoder, trailing
// newline), so oracle bytes are comparable to wire bytes.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type testClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func (tc *testClient) do(method, path string, body []byte) (int, []byte) {
	tc.t.Helper()
	req, err := http.NewRequest(method, tc.base+path, bytes.NewReader(body))
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tc.t.Fatal(err)
	}
	return resp.StatusCode, data
}

func (tc *testClient) must(method, path string, body []byte, wantCode int) []byte {
	tc.t.Helper()
	code, data := tc.do(method, path, body)
	if code != wantCode {
		tc.t.Fatalf("%s %s = %d, want %d: %s", method, path, code, wantCode, data)
	}
	return data
}

func newTestServer(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	srv := New(cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &testClient{t: t, base: ts.URL, c: ts.Client()}
}

// TestServeLoadOracle is the serving acceptance test: >= 100 concurrent
// sessions, each creating a layout over HTTP, detecting, applying
// incremental edits, re-detecting and rendering — with every served result
// compared byte-for-byte against an in-process oracle session driven through
// the same engine. It finishes by starting a graceful drain under load.
func TestServeLoadOracle(t *testing.T) {
	const sessions = 110
	eng := aapsm.NewEngine(aapsm.WithParallelism(2))
	srv, tc := newTestServer(t, Config{
		Engine:        eng,
		StoreCapacity: 2 * sessions, // no eviction: every flow keeps its session
		DetectWorkers: 1,
	})

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := loadLayout(i)
			body := layoutText(t, l)

			// Oracle: the same engine config driven in-process.
			oracle := eng.NewSessionWithParallelism(l.Clone(), 1)

			var created createResponse
			if err := json.Unmarshal(tc.must("POST", "/v1/sessions", body, 200), &created); err != nil {
				t.Error(err)
				return
			}
			if created.Reused {
				t.Errorf("session %d: unique layout reported reused", i)
				return
			}

			check := func(stage string) bool {
				raw := tc.must("GET", "/v1/sessions/"+created.ID+"/detect", nil, 200)
				res, err := oracle.Detect(t.Context())
				if err != nil {
					t.Errorf("session %d oracle detect: %v", i, err)
					return false
				}
				// total_ns is wall-clock timing, the one legitimately
				// nondeterministic field; zero it on both sides and compare
				// everything else byte-for-byte.
				var gotR detectResponse
				if err := json.Unmarshal(raw, &gotR); err != nil {
					t.Errorf("session %d %s detect unmarshal: %v", i, stage, err)
					return false
				}
				wantR := buildDetectResponse(created.ID, oracle, res)
				gotR.Stats.TotalNS, wantR.Stats.TotalNS = 0, 0
				got, want := encodeJSON(t, gotR), encodeJSON(t, wantR)
				if !bytes.Equal(got, want) {
					t.Errorf("session %d %s detect diverged from oracle:\n got %s\nwant %s", i, stage, got, want)
					return false
				}
				return true
			}
			if !check("initial") {
				return
			}

			// Batched incremental edits: move the first feature, add a gate
			// far from the rest, delete the last feature.
			f0 := l.Features[0].Rect
			moved := f0.Translate(aapsm.Point{X: 15, Y: 0})
			bb := l.BBox()
			addRect := aapsm.R(bb.X1+2000, bb.Y0, bb.X1+2100, bb.Y0+1000)
			ops := editsRequest{Ops: []editOp{
				{Op: "move", Index: idx(0), Rect: []int64{moved.X0, moved.Y0, moved.X1, moved.Y1}},
				{Op: "add", Rect: []int64{addRect.X0, addRect.Y0, addRect.X1, addRect.Y1}},
				{Op: "del", Index: idx(len(l.Features))},
			}}
			tc.must("POST", "/v1/sessions/"+created.ID+"/edits", encodeJSON(t, ops), 200)
			err := oracle.Edit(func(ed *aapsm.LayoutEditor) {
				ed.Move(0, moved)
				ed.Add(addRect)
				ed.Delete(len(l.Features))
			})
			if err != nil {
				t.Errorf("session %d oracle edit: %v", i, err)
				return
			}
			if !check("post-edit") {
				return
			}

			// SVG render must match byte-for-byte too.
			gotSVG := tc.must("GET", "/v1/sessions/"+created.ID+"/svg", nil, 200)
			var wantSVG bytes.Buffer
			if err := oracle.RenderSVG(t.Context(), &wantSVG); err != nil {
				t.Errorf("session %d oracle render: %v", i, err)
				return
			}
			if !bytes.Equal(gotSVG, wantSVG.Bytes()) {
				t.Errorf("session %d SVG diverged from oracle (%d vs %d bytes)", i, len(gotSVG), wantSVG.Len())
			}
		}(i)
	}
	wg.Wait()

	if n := srv.Sessions(); n != sessions {
		t.Errorf("live sessions = %d, want %d", n, sessions)
	}

	// Graceful drain under load: flip draining while detects are in flight.
	// /healthz must answer 503 so balancers pull the instance, while
	// still-arriving stage requests keep completing.
	var drainWG sync.WaitGroup
	for i := 0; i < 8; i++ {
		drainWG.Add(1)
		go func(i int) {
			defer drainWG.Done()
			body := layoutText(t, loadLayout(i))
			var created createResponse
			if err := json.Unmarshal(tc.must("POST", "/v1/sessions", body, 200), &created); err != nil {
				t.Error(err)
				return
			}
			tc.must("GET", "/v1/sessions/"+created.ID+"/detect", nil, 200)
		}(i)
	}
	srv.BeginDrain()
	drainWG.Wait()
	code, body := tc.do("GET", "/healthz", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("healthz while draining = %d %s, want 503 draining", code, body)
	}
}

// TestServeLoadEviction runs 100 concurrent session flows against a store an
// order of magnitude smaller, so LRU eviction churns continuously under
// -race; clients that lose their session to eviction observe a clean 404
// and recover by re-creating.
func TestServeLoadEviction(t *testing.T) {
	const flows = 100
	srv, tc := newTestServer(t, Config{
		Engine:        aapsm.NewEngine(),
		StoreCapacity: 12,
	})
	var recreated atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := layoutText(t, loadLayout(i))
			create := func() (string, bool) {
				var created createResponse
				code, data := tc.do("POST", "/v1/sessions", body)
				if code != 200 {
					t.Errorf("flow %d create = %d: %s", i, code, data)
					return "", false
				}
				if err := json.Unmarshal(data, &created); err != nil {
					t.Error(err)
					return "", false
				}
				return created.ID, true
			}
			id, ok := create()
			if !ok {
				return
			}
			for step := 0; step < 3; step++ {
				code, data := tc.do("GET", "/v1/sessions/"+id+"/detect", nil)
				switch code {
				case 200:
				case 404:
					// Evicted under pressure: a well-behaved client simply
					// re-creates and carries on.
					recreated.Add(1)
					if id, ok = create(); !ok {
						return
					}
				default:
					t.Errorf("flow %d detect = %d: %s", i, code, data)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if n := srv.Sessions(); n > 12 {
		t.Errorf("live sessions = %d, want <= capacity 12", n)
	}
	if srv.metrics.sessionsEvicted.lru.Load() == 0 {
		t.Error("no LRU evictions under store pressure")
	}
	t.Logf("evictions=%d recreated-after-eviction=%d",
		srv.metrics.sessionsEvicted.lru.Load(), recreated.Load())
}

// TestCreateCoalescing: concurrent identical uploads build one session.
func TestCreateCoalescing(t *testing.T) {
	srv, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})
	body := layoutText(t, loadLayout(7))
	const callers = 32
	ids := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var created createResponse
			if err := json.Unmarshal(tc.must("POST", "/v1/sessions", body, 200), &created); err != nil {
				t.Error(err)
				return
			}
			ids[i] = created.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("identical uploads got different sessions: %q vs %q", id, ids[0])
		}
	}
	if n := srv.metrics.sessionsCreated.Load(); n != 1 {
		t.Errorf("sessions created = %d, want 1", n)
	}
	if n := srv.metrics.sessionsReused.Load(); n != callers-1 {
		t.Errorf("sessions reused = %d, want %d", n, callers-1)
	}

	// After an edit the session diverges: the same bytes get a new session.
	edit := encodeJSON(t, editsRequest{Ops: []editOp{{Op: "del", Index: idx(0)}}})
	tc.must("POST", "/v1/sessions/"+ids[0]+"/edits", edit, 200)
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", body, 200), &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == ids[0] {
		t.Fatal("edited session satisfied create-by-hash")
	}
}

// TestRejectedEditKeepsReattach: an edit request that applies nothing (a
// 422 for an out-of-range index) leaves the session pristine, so
// re-uploading the same layout reattaches to it.
func TestRejectedEditKeepsReattach(t *testing.T) {
	_, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})
	body := layoutText(t, loadLayout(8))
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", body, 200), &created); err != nil {
		t.Fatal(err)
	}
	tc.must("POST", "/v1/sessions/"+created.ID+"/edits",
		encodeJSON(t, editsRequest{Ops: []editOp{{Op: "move", Index: idx(99999), Rect: []int64{0, 0, 100, 1000}}}}), 422)
	var again createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", body, 200), &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != created.ID || !again.Reused {
		t.Fatalf("re-upload after a rejected edit: id %q reused=%v, want %q reattached", again.ID, again.Reused, created.ID)
	}
}

// TestEditAddedIndices: the added-indices report accounts for del ops later
// in the same batch.
func TestEditAddedIndices(t *testing.T) {
	_, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(9)), 200), &created); err != nil {
		t.Fatal(err)
	}
	n := created.Features
	// Add two features, delete feature 0 (shifts both down), then delete
	// the first added feature itself.
	ops := editsRequest{Ops: []editOp{
		{Op: "add", Rect: []int64{100000, 0, 100100, 1000}},
		{Op: "add", Rect: []int64{102000, 0, 102100, 1000}},
		{Op: "del", Index: idx(0)},
		{Op: "del", Index: idx(n - 1)}, // first added feature, post-shift
	}}
	var resp editsResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions/"+created.ID+"/edits", encodeJSON(t, ops), 200), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Features != n {
		t.Errorf("features = %d, want %d", resp.Features, n)
	}
	if len(resp.Added) != 2 || resp.Added[0] != -1 || resp.Added[1] != n-1 {
		t.Fatalf("added = %v, want [-1 %d]", resp.Added, n-1)
	}
	// The surviving added feature really is at the reported index: delete
	// it and check the count.
	del := editsRequest{Ops: []editOp{{Op: "del", Index: idx(resp.Added[1])}}}
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions/"+created.ID+"/edits", encodeJSON(t, del), 200), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Features != n-1 {
		t.Errorf("features = %d, want %d", resp.Features, n-1)
	}
}

// TestSessionTTLOverHTTP: an idle session expires and later requests see a
// typed 404.
func TestSessionTTLOverHTTP(t *testing.T) {
	clock := newFakeClock()
	srv, tc := newTestServer(t, Config{
		Engine:     aapsm.NewEngine(),
		SessionTTL: 10 * time.Minute,
		now:        clock.Now,
	})
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(1)), 200), &created); err != nil {
		t.Fatal(err)
	}
	tc.must("GET", "/v1/sessions/"+created.ID, nil, 200)
	clock.Advance(11 * time.Minute)
	srv.store.sweep() // the sweep loop's tick
	data := tc.must("GET", "/v1/sessions/"+created.ID, nil, 404)
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "unknown_session" {
		t.Errorf("error code = %q, want unknown_session", eb.Error.Code)
	}
}

// TestFullPipelineEndpoints drives every stage endpoint on one session.
func TestFullPipelineEndpoints(t *testing.T) {
	_, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(3)), 200), &created); err != nil {
		t.Fatal(err)
	}
	id := created.ID

	var det detectResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+id+"/detect", nil, 200), &det); err != nil {
		t.Fatal(err)
	}
	if det.Features != created.Features || det.Graph != "PCG" {
		t.Errorf("detect = %+v", det)
	}

	var asn assignResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+id+"/assign", nil, 200), &asn); err != nil {
		t.Fatal(err)
	}
	if len(asn.Phases) == 0 {
		t.Error("no phases assigned")
	}
	for _, p := range asn.Phases {
		if p != 0 && p != 180 {
			t.Errorf("phase %d", p)
		}
	}

	var cor correctResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+id+"/correct?include_layout=1", nil, 200), &cor); err != nil {
		t.Fatal(err)
	}
	if cor.Layout == "" {
		t.Error("include_layout=1 returned no layout")
	}
	if !det.Assignable && cor.Cuts == 0 && cor.Unfixable == 0 {
		t.Error("conflicted layout corrected with neither cuts nor unfixables")
	}

	var drc drcResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+id+"/drc", nil, 200), &drc); err != nil {
		t.Fatal(err)
	}

	svg := tc.must("GET", "/v1/sessions/"+id+"/svg", nil, 200)
	if !bytes.Contains(svg, []byte("<svg")) {
		t.Error("svg endpoint returned no svg")
	}

	// Layout export round-trips through both formats.
	text := tc.must("GET", "/v1/sessions/"+id+"/layout", nil, 200)
	lt, err := aapsm.ReadLayoutText(bytes.NewReader(text))
	if err != nil {
		t.Fatalf("text export unparsable: %v", err)
	}
	gds := tc.must("GET", "/v1/sessions/"+id+"/layout?format=gds", nil, 200)
	lg, err := aapsm.ReadGDS(bytes.NewReader(gds))
	if err != nil {
		t.Fatalf("gds export unparsable: %v", err)
	}
	if len(lt.Features) != created.Features || len(lg.Features) != created.Features {
		t.Errorf("exports have %d / %d features, want %d", len(lt.Features), len(lg.Features), created.Features)
	}

	// Mask view is a valid multi-layer layout.
	mask := tc.must("GET", "/v1/sessions/"+id+"/mask", nil, 200)
	if _, err := aapsm.ReadLayoutText(bytes.NewReader(mask)); err != nil {
		t.Fatalf("mask export unparsable: %v", err)
	}

	var info infoResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+id, nil, 200), &info); err != nil {
		t.Fatal(err)
	}
	if info.DetectRuns != 1 {
		t.Errorf("detect runs = %d, want 1 (stages must share the memoized detection)", info.DetectRuns)
	}

	tc.must("DELETE", "/v1/sessions/"+id, nil, 204)
	tc.must("GET", "/v1/sessions/"+id+"/detect", nil, 404)
}

// TestTypedErrors checks the JSON error envelope and status mapping.
func TestTypedErrors(t *testing.T) {
	_, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})

	// Unparsable layout.
	data := tc.must("POST", "/v1/sessions", []byte("rect 1 2 3 4"), 400)
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "bad_layout" || eb.Error.Status != 400 {
		t.Errorf("error = %+v", eb.Error)
	}

	// Unknown format.
	tc.must("POST", "/v1/sessions?format=oas", []byte("x"), 400)

	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(4)), 200), &created); err != nil {
		t.Fatal(err)
	}

	// Malformed edit batches.
	tc.must("POST", "/v1/sessions/"+created.ID+"/edits", []byte("{"), 400)
	tc.must("POST", "/v1/sessions/"+created.ID+"/edits",
		encodeJSON(t, editsRequest{Ops: []editOp{{Op: "warp"}}}), 400)
	tc.must("POST", "/v1/sessions/"+created.ID+"/edits",
		encodeJSON(t, editsRequest{Ops: []editOp{{Op: "add", Rect: []int64{1, 2}}}}), 400)
	// move/del without an explicit index must be rejected, not default to
	// feature 0.
	tc.must("POST", "/v1/sessions/"+created.ID+"/edits",
		encodeJSON(t, editsRequest{Ops: []editOp{{Op: "del"}}}), 400)

	// An out-of-range index rejects the whole batch atomically: the valid
	// add before it must not land.
	before := created.Features
	data = tc.must("POST", "/v1/sessions/"+created.ID+"/edits",
		encodeJSON(t, editsRequest{Ops: []editOp{
			{Op: "add", Rect: []int64{0, 5000, 100, 6000}},
			{Op: "del", Index: idx(99999)},
		}}), 422)
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "bad_index" || eb.Error.Stage != "edit" {
		t.Errorf("error = %+v", eb.Error)
	}
	var info infoResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+created.ID, nil, 200), &info); err != nil {
		t.Fatal(err)
	}
	if info.Features != before || info.Edits != 0 {
		t.Errorf("rejected batch was partially applied: features %d->%d, edits %d",
			before, info.Features, info.Edits)
	}
}

// TestRequestTimeout: an already-expired request deadline surfaces as a
// typed 504 and does not poison the session for later calls.
func TestRequestTimeout(t *testing.T) {
	srv, tc := newTestServer(t, Config{
		Engine:         aapsm.NewEngine(),
		RequestTimeout: time.Nanosecond,
	})
	// Session creation is itself bounded by the request timeout.
	data := tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(5)), 504)
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "timeout" {
		t.Errorf("create error = %+v", eb.Error)
	}

	// Seed a session past the HTTP layer, then hit the stage endpoints: the
	// pipeline work times out with a typed 504.
	l := loadLayout(5)
	hash, err := layoutHash(l, "")
	if err != nil {
		t.Fatal(err)
	}
	ent, _, err := srv.store.getOrCreate(t.Context(), hash, func() (*aapsm.Session, error) {
		return srv.cfg.Engine.NewSession(l), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Repeated attempts keep answering 504 — a timed-out attempt is not
	// memoized as the session's detection result.
	for i := 0; i < 3; i++ {
		data := tc.must("GET", "/v1/sessions/"+ent.ID+"/detect", nil, 504)
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Code != "timeout" {
			t.Errorf("error = %+v", eb.Error)
		}
	}
	// The session itself is not poisoned: the same stored session served
	// with a live context completes. (Stage context errors are never
	// memoized, so the retry runs the real pipeline.)
	if _, err := ent.Sess.Detect(t.Context()); err != nil {
		t.Fatalf("session poisoned by timed-out attempts: %v", err)
	}
}

// TestMetricsEndpoint spot-checks the exposition format.
func TestMetricsEndpoint(t *testing.T) {
	_, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(6)), 200), &created); err != nil {
		t.Fatal(err)
	}
	tc.must("GET", "/v1/sessions/"+created.ID+"/detect", nil, 200)
	body := string(tc.must("GET", "/metrics", nil, 200))
	for _, want := range []string{
		"aapsmd_up 1",
		"aapsmd_sessions_live 1",
		"aapsmd_sessions_created_total 1",
		"aapsmd_detects_total 1",
		`aapsmd_requests_total{route="create",code="200"} 1`,
		`aapsmd_request_seconds_count{route="detect"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestIncrementalReuseSurfaces: after an edit-and-repipeline cycle the edits
// response reports the session's cumulative per-stage reuse profile, and
// /metrics exposes the per-stage reused/solved counters with detect-stage
// reuse actually observed.
func TestIncrementalReuseSurfaces(t *testing.T) {
	_, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})
	// A multi-cluster layout, so a single-feature move leaves most conflict
	// clusters clean and reusable.
	l := bench.Generate("reuse-surface", bench.DefaultParams(7, 2, 40))
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, l), 200), &created); err != nil {
		t.Fatal(err)
	}
	base := "/v1/sessions/" + created.ID
	// First full pipeline seeds the cluster caches.
	for _, ep := range []string{"/detect", "/assign", "/correct", "/drc"} {
		tc.must("GET", base+ep, nil, 200)
	}
	r0 := l.Features[0].Rect
	moved := []int64{r0.X0, r0.Y0 + 5, r0.X1, r0.Y1 + 5}
	var edited editsResponse
	body := tc.must("POST", base+"/edits", encodeJSON(t, editsRequest{Ops: []editOp{
		{Op: "move", Index: idx(0), Rect: moved},
	}}), 200)
	if err := json.Unmarshal(body, &edited); err != nil {
		t.Fatal(err)
	}
	if edited.Incremental.Edits != 1 {
		t.Fatalf("edits response incremental profile = %+v, want Edits 1", edited.Incremental)
	}
	// Re-run the pipeline: the re-detect must reuse shards, and the reuse
	// must surface both in the session profile and the /metrics counters.
	for _, ep := range []string{"/detect", "/assign", "/correct", "/drc"} {
		tc.must("GET", base+ep, nil, 200)
	}
	if err := json.Unmarshal(tc.must("POST", base+"/edits", encodeJSON(t, editsRequest{Ops: []editOp{
		{Op: "move", Index: idx(0), Rect: []int64{r0.X0, r0.Y0, r0.X1, r0.Y1}},
	}}), 200), &edited); err != nil {
		t.Fatal(err)
	}
	if edited.Incremental.ShardsReused == 0 {
		t.Fatalf("post-edit re-detect reused no shards: %+v", edited.Incremental)
	}
	metrics := string(tc.must("GET", "/metrics", nil, 200))
	for _, want := range []string{
		`aapsmd_incremental_reused_total{stage="detect"} `,
		`aapsmd_incremental_solved_total{stage="drc"} `,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, `aapsmd_incremental_reused_total{stage="detect"} `) {
			if strings.TrimPrefix(line, `aapsmd_incremental_reused_total{stage="detect"} `) == "0" {
				t.Errorf("detect-stage reuse counter stayed 0 after an incremental re-detect")
			}
		}
	}
}

// TestGDSUpload: a GDS body creates the same session as the equivalent text
// upload (the hash is computed over the canonical text form).
func TestGDSUpload(t *testing.T) {
	_, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})
	l := loadLayout(8)
	var gds bytes.Buffer
	if err := aapsm.WriteGDS(&gds, l); err != nil {
		t.Fatal(err)
	}
	var a, b createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions?format=gds", gds.Bytes(), 200), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, l), 200), &b); err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID || !b.Reused {
		t.Errorf("GDS and text uploads of one layout got sessions %q and %q (reused=%v)", a.ID, b.ID, b.Reused)
	}
}

// TestProfileEndpoint pins the ?profile= session-creation contract: the
// response and info endpoints report the registry name, the same content
// under different profiles hashes to distinct sessions, and unknown names
// are a typed 400.
func TestProfileEndpoint(t *testing.T) {
	_, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})
	body := layoutText(t, loadLayout(3))

	var dark createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions?profile=dark-90nm", body, 200), &dark); err != nil {
		t.Fatal(err)
	}
	if dark.Profile != "dark-90nm" {
		t.Fatalf("create profile = %q, want dark-90nm", dark.Profile)
	}
	var info infoResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+dark.ID, nil, 200), &info); err != nil {
		t.Fatal(err)
	}
	if info.Profile != "dark-90nm" {
		t.Fatalf("info profile = %q, want dark-90nm", info.Profile)
	}

	// The hash mixes in the profile: the same bytes under the default
	// engine are a different session, not a reuse of the dark one.
	var base createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", body, 200), &base); err != nil {
		t.Fatal(err)
	}
	if base.ID == dark.ID || base.Reused {
		t.Fatalf("default-profile upload reattached to the dark session (id %q reused=%v)", base.ID, base.Reused)
	}

	// Unknown profiles are a typed 400 naming the registry.
	code, raw := tc.do("POST", "/v1/sessions?profile=tri-tone-65nm", body)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown profile: status %d, want 400: %s", code, raw)
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "unknown_profile" {
		t.Fatalf("error code %q, want unknown_profile", eb.Error.Code)
	}
	if !strings.Contains(eb.Error.Message, "bright-90nm") {
		t.Fatalf("error message does not list registered profiles: %s", eb.Error.Message)
	}
}

// hierGDS encodes cell as a GDS library whose top cell places it in a 2x2
// AREF, so the upload carries a hierarchy sidecar.
func hierGDS(t *testing.T, cell *aapsm.Layout) []byte {
	t.Helper()
	lib := &gds.Library{Name: "LOAD", Cells: []*gds.Cell{{Name: "CELL"}}}
	for _, f := range cell.Features {
		lib.Cells[0].Polys = append(lib.Cells[0].Polys, gds.Poly{Layer: f.Layer, Pts: []geom.Point{
			{X: f.Rect.X0, Y: f.Rect.Y0}, {X: f.Rect.X1, Y: f.Rect.Y0},
			{X: f.Rect.X1, Y: f.Rect.Y1}, {X: f.Rect.X0, Y: f.Rect.Y1},
		}})
	}
	bb := cell.BBox()
	step := geom.Point{X: bb.X1 - bb.X0 + 2000, Y: bb.Y1 - bb.Y0 + 2000}
	lib.Cells = append([]*gds.Cell{{Name: "TOP", Refs: []gds.Ref{{
		Cell: "CELL", Cols: 2, Rows: 2,
		ColStep: geom.Point{X: step.X}, RowStep: geom.Point{Y: step.Y},
	}}}}, lib.Cells...)
	var buf bytes.Buffer
	if err := gds.WriteLibrary(&buf, lib); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHierUploadMetrics pins that a GDS upload placing one cell four times
// shares cluster solves end to end: detection solves each distinct cluster
// once, and /metrics exposes the shared-solve counters.
func TestHierUploadMetrics(t *testing.T) {
	_, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})

	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions?format=gds", hierGDS(t, loadLayout(4)), 200), &created); err != nil {
		t.Fatal(err)
	}
	tc.must("GET", "/v1/sessions/"+created.ID+"/detect", nil, 200)

	metrics := string(tc.must("GET", "/metrics", nil, 200))
	reused, solved := -1, -1
	for _, line := range strings.Split(metrics, "\n") {
		if n, ok := strings.CutPrefix(line, "aapsmd_hier_clusters_reused_total "); ok {
			fmt.Sscanf(n, "%d", &reused)
		}
		if n, ok := strings.CutPrefix(line, "aapsmd_hier_clusters_solved_total "); ok {
			fmt.Sscanf(n, "%d", &solved)
		}
	}
	if solved <= 0 || reused <= 0 {
		t.Fatalf("hier metrics after hierarchical detect: reused=%d solved=%d (want both > 0)", reused, solved)
	}
	if reused < solved {
		t.Fatalf("4 identical placements should reuse more than they solve: reused=%d solved=%d", reused, solved)
	}
}
