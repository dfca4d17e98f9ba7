package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	aapsm "repro"
	"repro/internal/bench"
)

// contendedLayout generates a layout with enough features for one writer per
// feature under heavy client counts.
func contendedLayout(i, minFeatures int) *aapsm.Layout {
	p := bench.DefaultParams(int64(3000+i), 2, 14)
	p.DenseClusterEvery = 3
	p.DenseClusterSize = 3
	l := bench.Generate(fmt.Sprintf("cont-%03d", i), p)
	if len(l.Features) < minFeatures {
		panic(fmt.Sprintf("contendedLayout(%d): %d features < %d", i, len(l.Features), minFeatures))
	}
	return l
}

// normalizeDetect strips the one legitimately nondeterministic field
// (total_ns wall clock) from a served detect body so runs are comparable.
func normalizeDetect(t *testing.T, raw []byte) []byte {
	t.Helper()
	var r detectResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("detect unmarshal: %v: %s", err, raw)
	}
	r.Stats.TotalNS = 0
	return encodeJSON(t, r)
}

// moveOp builds a single-op edit body moving feature idx to r.
func moveBody(t *testing.T, i int, r aapsm.Rect) []byte {
	t.Helper()
	return encodeJSON(t, editsRequest{Ops: []editOp{
		{Op: "move", Index: idx(i), Rect: []int64{r.X0, r.Y0, r.X1, r.Y1}},
	}})
}

// TestCoalescedEditsDifferential is the coalescer acceptance test: N
// concurrent single-op edits against one session — collected into merged
// batches by a generous BatchWait — must leave the session in a state where
// EVERY served stage is bit-identical to replaying the same edits one at a
// time, in committed (seq, pos) order, on a coalescing-disabled server.
// Run under -race this also exercises the batcher's publication discipline.
func TestCoalescedEditsDifferential(t *testing.T) {
	const clients = 16
	l := contendedLayout(1, clients)
	eng := aapsm.NewEngine(aapsm.WithParallelism(2))

	_, batched := newTestServer(t, Config{
		Engine:        eng,
		DetectWorkers: 1,
		BatchMax:      clients,
		BatchWait:     400 * time.Millisecond,
	})
	var created createResponse
	if err := json.Unmarshal(batched.must("POST", "/v1/sessions", layoutText(t, l), 200), &created); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		client int
		resp   editsResponse
	}
	results := make([]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := l.Features[c].Rect.Translate(aapsm.Point{X: 10})
			raw := batched.must("POST", "/v1/sessions/"+created.ID+"/edits", moveBody(t, c, r), 200)
			var er editsResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			results[c] = outcome{client: c, resp: er}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	maxSize := 0
	seen := map[string]bool{}
	for _, o := range results {
		if o.resp.Applied != 1 {
			t.Fatalf("client %d applied = %d, want 1", o.client, o.resp.Applied)
		}
		if o.resp.Batch == nil {
			t.Fatalf("client %d response has no batch receipt", o.client)
		}
		if o.resp.Batch.Size > maxSize {
			maxSize = o.resp.Batch.Size
		}
		k := fmt.Sprintf("%d/%d", o.resp.Batch.Seq, o.resp.Batch.Pos)
		if seen[k] {
			t.Fatalf("duplicate batch slot %s", k)
		}
		seen[k] = true
	}
	if maxSize < 2 {
		t.Fatalf("no coalescing happened: max batch size %d (want >= 2)", maxSize)
	}

	// Replay the committed order on a server with coalescing disabled.
	_, oracle := newTestServer(t, Config{
		Engine:        eng,
		DetectWorkers: 1,
		BatchMax:      -1,
		BatchWait:     -1,
	})
	var ocreated createResponse
	if err := json.Unmarshal(oracle.must("POST", "/v1/sessions", layoutText(t, l), 200), &ocreated); err != nil {
		t.Fatal(err)
	}
	sort.Slice(results, func(i, j int) bool {
		a, b := results[i].resp.Batch, results[j].resp.Batch
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Pos < b.Pos
	})
	var lastSeq editsResponse
	for _, o := range results {
		r := l.Features[o.client].Rect.Translate(aapsm.Point{X: 10})
		raw := oracle.must("POST", "/v1/sessions/"+ocreated.ID+"/edits", moveBody(t, o.client, r), 200)
		if err := json.Unmarshal(raw, &lastSeq); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := results[len(results)-1].resp.Features, lastSeq.Features; got != want {
		t.Fatalf("final feature count: coalesced %d, sequential %d", got, want)
	}

	// Every stage must serve bit-identical bytes from both sessions.
	for _, stage := range []string{"detect", "assign", "correct", "drc", "mask", "layout", "svg"} {
		gotCode, got := batched.do("GET", "/v1/sessions/"+created.ID+"/"+stage, nil)
		wantCode, want := oracle.do("GET", "/v1/sessions/"+ocreated.ID+"/"+stage, nil)
		if gotCode != wantCode {
			t.Errorf("%s: coalesced %d, sequential %d", stage, gotCode, wantCode)
			continue
		}
		if stage == "detect" && gotCode == 200 {
			got, want = normalizeDetect(t, got), normalizeDetect(t, want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged after coalesced edits:\n got %s\nwant %s", stage, got, want)
		}
	}

	// Reuse stats stay sane: the incremental engine never fell back to a
	// dirty full recompute while serving the merged batches.
	var info infoResponse
	if err := json.Unmarshal(batched.must("GET", "/v1/sessions/"+created.ID, nil, 200), &info); err != nil {
		t.Fatal(err)
	}
	if info.Incremental.FallbackDirty != 0 {
		t.Fatalf("coalesced session hit dirty fallbacks: %+v", info.Incremental)
	}
}

// TestBatchedEditErrorAttribution: a request with an out-of-range op inside a
// merged batch answers 422 alone; every other request in the batch lands —
// and the shared ?detect=1 pipeline still runs for the survivors.
func TestBatchedEditErrorAttribution(t *testing.T) {
	l := contendedLayout(2, 8)
	srv, tc := newTestServer(t, Config{
		Engine:        aapsm.NewEngine(aapsm.WithParallelism(2)),
		DetectWorkers: 1,
		BatchMax:      8,
		BatchWait:     400 * time.Millisecond,
	})
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, l), 200), &created); err != nil {
		t.Fatal(err)
	}
	nf := len(l.Features)

	type result struct {
		code int
		body []byte
	}
	bodies := [][]byte{
		moveBody(t, 0, l.Features[0].Rect.Translate(aapsm.Point{X: 10})),
		moveBody(t, nf+100, aapsm.R(0, 0, 10, 10)), // out of range: this one must fail alone
		moveBody(t, 1, l.Features[1].Rect.Translate(aapsm.Point{X: -10})),
	}
	results := make([]result, len(bodies))
	var wg sync.WaitGroup
	for i, b := range bodies {
		wg.Add(1)
		go func(i int, b []byte) {
			defer wg.Done()
			code, data := tc.do("POST", "/v1/sessions/"+created.ID+"/edits?detect=1", b)
			results[i] = result{code, data}
		}(i, b)
	}
	wg.Wait()

	if results[0].code != 200 || results[2].code != 200 {
		t.Fatalf("good items = %d, %d, want 200, 200: %s / %s",
			results[0].code, results[2].code, results[0].body, results[2].body)
	}
	if results[1].code != 422 {
		t.Fatalf("bad item = %d, want 422: %s", results[1].code, results[1].body)
	}
	var eb errorBody
	if err := json.Unmarshal(results[1].body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "bad_index" || !strings.Contains(eb.Error.Message, "out of range") {
		t.Fatalf("bad item error = %+v", eb.Error)
	}
	for _, i := range []int{0, 2} {
		var er editsResponse
		if err := json.Unmarshal(results[i].body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Applied != 1 {
			t.Fatalf("good item %d applied = %d, want 1", i, er.Applied)
		}
		if er.Detect == nil && er.DetectError == "" {
			t.Fatalf("good item %d missing the shared ?detect=1 result", i)
		}
	}
	// Both good moves landed: the session diverged from the upload by exactly
	// two surviving ops, nothing from the rejected request.
	var info infoResponse
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+created.ID, nil, 200), &info); err != nil {
		t.Fatal(err)
	}
	if info.Features != nf {
		t.Fatalf("feature count = %d, want %d (moves only)", info.Features, nf)
	}
	if srv.metrics.edits.Load() != 2 {
		t.Fatalf("applied-edit counter = %d, want 2", srv.metrics.edits.Load())
	}
}

// TestReadSingleFlight: identical read-stage requests in flight together at
// one session generation run the pipeline (and response encoding) once;
// followers share the leader's bytes and are counted as coalesced reads. The
// leader's handler is held until every follower has parked on its call, so
// all of them provably join it.
func TestReadSingleFlight(t *testing.T) {
	const readers = 8
	srv, tc := newTestServer(t, Config{
		Engine:        aapsm.NewEngine(aapsm.WithParallelism(2)),
		DetectWorkers: 1,
	})
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(81)), 200), &created); err != nil {
		t.Fatal(err)
	}
	ent, ok := srv.store.get(created.ID)
	if !ok {
		t.Fatal("created session not in the store")
	}
	defer srv.store.release(ent)

	var once sync.Once
	entered, release := make(chan struct{}), make(chan struct{})
	h := func(w http.ResponseWriter, r *http.Request, ent *sessionEntry) {
		once.Do(func() {
			close(entered)
			<-release
		})
		srv.handleDetect(w, r, ent)
	}
	bodies := make([][]byte, readers)
	read := func(ctx context.Context, i int) {
		code, _, body, ok := srv.readCoalesced(httptest.NewRequest("GET", "/", nil).WithContext(ctx), ent, "detect", "", h)
		if !ok || code != http.StatusOK {
			t.Errorf("reader %d: ok=%v code=%d", i, ok, code)
		}
		bodies[i] = body
	}
	var wg sync.WaitGroup
	wg.Add(readers)
	go func() { defer wg.Done(); read(t.Context(), 0) }()
	<-entered
	parked := &parkCounter{Context: t.Context(), parked: make(chan struct{}, readers)}
	for i := 1; i < readers; i++ {
		go func(i int) { defer wg.Done(); read(parked, i) }(i)
	}
	for i := 1; i < readers; i++ {
		<-parked.parked
	}
	close(release)
	wg.Wait()
	for i := 1; i < readers; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("reader %d got different bytes than reader 0", i)
		}
	}
	if n := srv.metrics.detects.Load(); n != 1 {
		t.Fatalf("detect handler ran %d times for %d identical reads, want 1", n, readers)
	}
	if n := srv.metrics.readsCoalesced.Load(); n != readers-1 {
		t.Fatalf("coalesced reads = %d, want %d", n, readers-1)
	}
	// A different variant (query string) of the same stage is NOT the same
	// read: it computes its own response.
	asText := tc.must("GET", "/v1/sessions/"+created.ID+"/layout", nil, 200)
	asGDS := tc.must("GET", "/v1/sessions/"+created.ID+"/layout?format=gds", nil, 200)
	if bytes.Equal(asText, asGDS) {
		t.Fatal("distinct variants served identical bytes — variant missing from the single-flight key")
	}
}

// TestSequentialReadsNotCoalesced: a read that arrives after an identical
// one has returned, at the same generation, runs the handler again and is
// not counted as coalesced. Only reads in flight together share work.
func TestSequentialReadsNotCoalesced(t *testing.T) {
	srv, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(81)), 200), &created); err != nil {
		t.Fatal(err)
	}
	first := tc.must("GET", "/v1/sessions/"+created.ID+"/detect", nil, 200)
	second := tc.must("GET", "/v1/sessions/"+created.ID+"/detect", nil, 200)
	if !bytes.Equal(normalizeDetect(t, first), normalizeDetect(t, second)) {
		t.Fatal("two reads at one generation disagree")
	}
	if n := srv.metrics.detects.Load(); n != 2 {
		t.Fatalf("detect handler ran %d times for two sequential reads, want 2", n)
	}
	if n := srv.metrics.readsCoalesced.Load(); n != 0 {
		t.Fatalf("coalesced reads = %d, want 0", n)
	}
}

// TestReadFlightKeepsNothing: after one GET of every read stage, the
// session's read flight holds no call, so no response bytes outlive their
// request.
func TestReadFlightKeepsNothing(t *testing.T) {
	srv, tc := newTestServer(t, Config{Engine: aapsm.NewEngine()})
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(81)), 200), &created); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"detect", "assign", "correct", "drc", "mask", "layout", "svg"} {
		tc.must("GET", "/v1/sessions/"+created.ID+"/"+stage, nil, 200)
	}
	ent, ok := srv.store.get(created.ID)
	if !ok {
		t.Fatal("created session not in the store")
	}
	defer srv.store.release(ent)
	f := &ent.batch.reads
	f.mu.Lock()
	n := len(f.calls)
	f.mu.Unlock()
	if n != 0 {
		t.Fatalf("read flight holds %d calls after every read returned, want 0", n)
	}
}

// parkProbeCtx reports, by closing parked, the first time anyone asks for
// its Done channel. A read follower first consults Done when it parks on
// an identical in-flight call, so the probe tells the test exactly when the
// follower is waiting — no sleeps.
type parkProbeCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (c *parkProbeCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// TestReadFollowerOutlivesCancelledLeader: when the leader of a read flight
// is cancelled, a follower whose own context is still live must not be
// handed the leader's 503 — it retries and computes the read itself.
func TestReadFollowerOutlivesCancelledLeader(t *testing.T) {
	srv := New(Config{Engine: aapsm.NewEngine()})
	t.Cleanup(srv.Close)
	ent, _, err := srv.store.getOrCreate(t.Context(), testHash(1), mkSession)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.store.release(ent)

	var calls atomic.Int32
	leaderIn := make(chan struct{})
	h := func(w http.ResponseWriter, r *http.Request, _ *sessionEntry) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-r.Context().Done()
			writeFlowError(w, r.Context().Err())
			return
		}
		w.Write([]byte("fresh"))
	}

	leaderCtx, cancel := context.WithCancel(t.Context())
	leaderCode := make(chan int, 1)
	go func() {
		code, _, _, _ := srv.readCoalesced(httptest.NewRequest("GET", "/", nil).WithContext(leaderCtx), ent, "detect", "", h)
		leaderCode <- code
	}()
	<-leaderIn

	probe := &parkProbeCtx{Context: t.Context(), parked: make(chan struct{})}
	type result struct {
		code int
		body []byte
		ok   bool
	}
	follower := make(chan result, 1)
	go func() {
		code, _, body, ok := srv.readCoalesced(httptest.NewRequest("GET", "/", nil).WithContext(probe), ent, "detect", "", h)
		follower <- result{code, body, ok}
	}()
	<-probe.parked
	cancel()

	if code := <-leaderCode; code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled leader answered %d, want 503", code)
	}
	got := <-follower
	if !got.ok || got.code != http.StatusOK || string(got.body) != "fresh" {
		t.Fatalf("live follower got ok=%v %d %q, want a fresh 200 computed after the leader was cancelled", got.ok, got.code, got.body)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2 (cancelled leader, then the follower)", n)
	}
}

// sseMsg is one parsed Server-Sent Event.
type sseMsg struct {
	event string
	id    string
	data  string
}

// readSSE parses the next event off the stream, skipping heartbeat comments.
func readSSE(t *testing.T, br *bufio.Reader) sseMsg {
	t.Helper()
	var m sseMsg
	var data []string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v (got so far: %+v)", err, m)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && (m.event != "" || len(data) > 0):
			m.data = strings.Join(data, "\n")
			return m
		case line == "" || strings.HasPrefix(line, ":"):
			// blank keep-alive or comment — skip
		case strings.HasPrefix(line, "event: "):
			m.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			m.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: "))
		default:
			t.Fatalf("unparseable SSE line %q", line)
		}
	}
}

// TestStreamDifferential replays an edit script over one streaming
// connection: after every committed batch the stream must push a detect
// result bit-identical (modulo wall clock) to an in-process oracle session
// applying the same script.
func TestStreamDifferential(t *testing.T) {
	l := contendedLayout(3, 8)
	eng := aapsm.NewEngine(aapsm.WithParallelism(2))
	srv, tc := newTestServer(t, Config{
		Engine:        eng,
		DetectWorkers: 1,
		BatchWait:     -1,
	})
	oracle := eng.NewSessionWithParallelism(l.Clone(), 1)
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, l), 200), &created); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest("GET", tc.base+"/v1/sessions/"+created.ID+"/stream?stages=detect", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	checkDetect := func(m sseMsg, wantGen string) {
		t.Helper()
		if m.event != "detect" || m.id != wantGen {
			t.Fatalf("event = %s id=%s, want detect id=%s", m.event, m.id, wantGen)
		}
		res, err := oracle.Detect(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		want := buildDetectResponse(created.ID, oracle, res)
		var got detectResponse
		if err := json.Unmarshal([]byte(m.data), &got); err != nil {
			t.Fatalf("stream detect payload: %v: %s", err, m.data)
		}
		got.Stats.TotalNS, want.Stats.TotalNS = 0, 0
		gb, wb := encodeJSON(t, got), encodeJSON(t, want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("stream detect diverged from oracle:\n got %s\nwant %s", gb, wb)
		}
	}

	hello := readSSE(t, br)
	if hello.event != "hello" {
		t.Fatalf("first event = %+v, want hello", hello)
	}
	var h streamHello
	if err := json.Unmarshal([]byte(hello.data), &h); err != nil {
		t.Fatal(err)
	}
	if h.ID != created.ID || len(h.Stages) != 1 || h.Stages[0] != "detect" {
		t.Fatalf("hello = %+v", h)
	}
	gen0 := h.Gen
	if hello.id != fmt.Sprint(gen0) {
		t.Fatalf("hello id = %s, payload gen %d", hello.id, gen0)
	}
	checkDetect(readSSE(t, br), fmt.Sprint(gen0))

	// The differential script: three sequential edit batches, each answered
	// by an edit event plus a fresh detect at the new generation.
	for step := 1; step <= 3; step++ {
		i := step * 2
		r := l.Features[i].Rect.Translate(aapsm.Point{X: int64(10 * step)})
		tc.must("POST", "/v1/sessions/"+created.ID+"/edits", moveBody(t, i, r), 200)
		if err := oracle.Edit(func(ed *aapsm.LayoutEditor) { ed.Move(i, r) }); err != nil {
			t.Fatal(err)
		}
		wantGen := fmt.Sprint(gen0 + int64(step))
		ev := readSSE(t, br)
		if ev.event != "edit" || ev.id != wantGen {
			t.Fatalf("step %d: event = %+v, want edit id=%s", step, ev, wantGen)
		}
		var ee streamEdit
		if err := json.Unmarshal([]byte(ev.data), &ee); err != nil {
			t.Fatal(err)
		}
		if ee.Features != oracle.NumFeatures() {
			t.Fatalf("step %d: stream features = %d, oracle %d", step, ee.Features, oracle.NumFeatures())
		}
		checkDetect(readSSE(t, br), wantGen)
	}
	if n := srv.metrics.streamsTotal.Load(); n != 1 {
		t.Fatalf("streams total = %d, want 1", n)
	}
	if srv.metrics.streamEvents.Load() == 0 {
		t.Fatal("stream event counter never moved")
	}
}

// TestStreamLimit: past MaxStreams, new streams shed with 429 stream_limit.
func TestStreamLimit(t *testing.T) {
	srv, tc := newTestServer(t, Config{
		Engine:     aapsm.NewEngine(),
		MaxStreams: 1,
	})
	var created createResponse
	if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(82)), 200), &created); err != nil {
		t.Fatal(err)
	}
	srv.streamSem <- struct{}{} // occupy the single slot
	var eb errorBody
	if err := json.Unmarshal(tc.must("GET", "/v1/sessions/"+created.ID+"/stream", nil, 429), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "stream_limit" {
		t.Fatalf("stream shed error = %+v", eb.Error)
	}
	if srv.metrics.streamsRejected.Load() != 1 {
		t.Fatalf("streams rejected = %d, want 1", srv.metrics.streamsRejected.Load())
	}
}

// BenchmarkServedEditsContended measures the coalescer's served-edit
// throughput under contention (16 writers × 4 edits with ?detect=1 on one
// session) against the one-request-one-pipeline baseline on the same grid
// — the same measurement benchtab records as served_edits_per_sec.
func BenchmarkServedEditsContended(b *testing.B) {
	l := contendedLayout(4, 16)
	eng := aapsm.NewEngine(aapsm.WithParallelism(2))
	for i := 0; i < b.N; i++ {
		res, err := MeasureContendedEdits(l, eng, 16, 4, 32, 2*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ServedPerSec, "edits/sec")
		b.ReportMetric(res.CoalesceRatio, "items/batch")
	}
}
