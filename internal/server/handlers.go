package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	aapsm "repro"
	"repro/internal/core"
)

// errorBody is the typed JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Stage   string `json:"stage,omitempty"`  // FlowError stage, when the pipeline failed
	Layout  string `json:"layout,omitempty"` // layout name the stage was working on
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, stage, layout, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{errorDetail{
		Status: status, Code: code, Stage: stage, Layout: layout, Message: msg,
	}})
}

// writeFlowError maps a pipeline error to a typed JSON response. Sentinel
// causes get stable machine-readable codes and a 409 (the layout is live but
// needs repair work); context errors map to timeout/cancellation statuses;
// any other *FlowError is a 422 (the pipeline rejected the data), and
// everything else is a 500.
func writeFlowError(w http.ResponseWriter, err error) {
	stage, layoutName := "", ""
	var fe *aapsm.FlowError
	isFlow := errors.As(err, &fe)
	if isFlow {
		stage, layoutName = fe.Stage.String(), fe.Layout
	}
	switch {
	case errors.Is(err, core.ErrPanic):
		// A shard solver panicked. The panic was contained to this session
		// (the daemon and every other session keep serving); the session
		// memoizes the error, so repeat requests answer the same 500 without
		// re-running the poisoned cluster.
		writeError(w, http.StatusInternalServerError, "panic", stage, layoutName, err.Error())
	case errors.Is(err, aapsm.ErrNotAssignable):
		writeError(w, http.StatusConflict, "not_assignable", stage, layoutName, err.Error())
	case errors.Is(err, aapsm.ErrUnfixable):
		writeError(w, http.StatusConflict, "unfixable", stage, layoutName, err.Error())
	case errors.Is(err, aapsm.ErrMaskInconsistent):
		writeError(w, http.StatusConflict, "mask_inconsistent", stage, layoutName, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "timeout", stage, layoutName, err.Error())
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "cancelled", stage, layoutName, err.Error())
	case isFlow:
		writeError(w, http.StatusUnprocessableEntity, "stage_failed", stage, layoutName, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", stage, layoutName, err.Error())
	}
}

// flowError is the method form handlers use: it counts quarantined
// shard-panic responses before delegating to writeFlowError.
func (s *Server) flowError(w http.ResponseWriter, err error) {
	if errors.Is(err, core.ErrPanic) {
		s.metrics.panicsShard.Add(1)
	}
	writeFlowError(w, err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// ---- session lifecycle ----

type createResponse struct {
	ID       string `json:"id"`
	Hash     string `json:"hash"`
	Name     string `json:"name"`
	Features int    `json:"features"`
	Reused   bool   `json:"reused"` // an existing pristine session (or snapshot) was reattached
	// Profile is the rules-profile registry name the session runs under
	// (omitted when the server's base engine uses custom rules).
	Profile string `json:"profile,omitempty"`
}

// handleCreate builds (or reattaches to) a session from an uploaded layout.
// The body is the plain-text interchange format by default, or a GDSII
// stream with ?format=gds; ?profile= selects a registered rules profile
// (default: the server engine's). Identical content under the same profile —
// text or GDS — canonicalizes to the same hash, so repeated uploads coalesce
// onto one session until it is edited; with persistence configured, a
// pristine snapshot of the same content rehydrates instead of re-detecting.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	eng, err := s.engineFor(r.URL.Query().Get("profile"))
	if err != nil {
		msg := err.Error()
		if errors.Is(err, aapsm.ErrUnknownProfile) {
			names := make([]string, 0, 2)
			for _, p := range aapsm.Profiles() {
				names = append(names, p.Name)
			}
			msg = fmt.Sprintf("%v (registered: %s)", err, strings.Join(names, ", "))
		}
		writeError(w, http.StatusBadRequest, "unknown_profile", "", "", msg)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_layout", "", "", err.Error())
		return
	}
	var l *aapsm.Layout
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
		l, err = aapsm.ReadLayoutText(bytes.NewReader(raw))
	case "gds":
		l, err = aapsm.ReadGDS(bytes.NewReader(raw))
	default:
		writeError(w, http.StatusBadRequest, "bad_format", "", "", fmt.Sprintf("unknown format %q (want text or gds)", format))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_layout", "", "", err.Error())
		return
	}
	hash, err := layoutHash(l, eng.Profile())
	if err != nil {
		s.flowError(w, err)
		return
	}
	// A pristine snapshot of identical content reattaches under its
	// original session ID, warm caches included. (rehydrate double-checks
	// the live store, so a currently-live session wins over its snapshot.)
	if ref, ok := s.pristineSnapshotFor(hash); ok {
		if ent, ok := s.rehydrate(r.Context(), ref.ID); ok {
			defer s.store.release(ent)
			s.metrics.sessionsReused.Add(1)
			writeJSON(w, createResponse{
				ID: ent.ID, Hash: ent.Hash,
				Name:     ent.Sess.LayoutName(),
				Features: ent.Sess.NumFeatures(),
				Reused:   true,
				Profile:  ent.Sess.Engine().Profile(),
			})
			return
		}
	}
	ent, reused, err := s.store.getOrCreate(r.Context(), hash, func() (*aapsm.Session, error) {
		return eng.NewSessionWithParallelism(l, s.cfg.DetectWorkers), nil
	})
	if err != nil {
		s.flowError(w, err)
		return
	}
	defer s.store.release(ent)
	if reused {
		s.metrics.sessionsReused.Add(1)
	} else {
		s.metrics.sessionsCreated.Add(1)
	}
	writeJSON(w, createResponse{
		ID: ent.ID, Hash: ent.Hash,
		Name:     ent.Sess.LayoutName(),
		Features: ent.Sess.NumFeatures(),
		Reused:   reused,
		Profile:  ent.Sess.Engine().Profile(),
	})
}

// layoutHash canonicalizes a layout (name, feature order, coordinates,
// layers) through the text serialization, mixes in the rules profile the
// session will run under (identical content under different profiles must
// not coalesce), and hashes it.
func layoutHash(l *aapsm.Layout, profile string) (string, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "profile %s\n", profile)
	if err := aapsm.WriteLayoutText(&buf, l); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

type infoResponse struct {
	ID          string                 `json:"id"`
	Hash        string                 `json:"hash"`
	Name        string                 `json:"name"`
	Features    int                    `json:"features"`
	Profile     string                 `json:"profile,omitempty"`
	Edits       int                    `json:"edits"`
	DetectRuns  int                    `json:"detect_runs"`
	Incremental aapsm.IncrementalStats `json:"incremental"`
	CreatedAt   time.Time              `json:"created_at"`
	ExpiresAt   *time.Time             `json:"expires_at,omitempty"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request, ent *sessionEntry) {
	st := ent.Sess.Stats()
	resp := infoResponse{
		ID: ent.ID, Hash: ent.Hash,
		Name:     ent.Sess.LayoutName(),
		Features: ent.Sess.NumFeatures(),
		Profile:  ent.Sess.Engine().Profile(),
		Edits:    st.Edits, DetectRuns: st.DetectRuns, Incremental: st.Incremental,
		CreatedAt: ent.Created,
	}
	if s.cfg.SessionTTL > 0 {
		exp := s.store.expires(ent)
		resp.ExpiresAt = &exp
	}
	writeJSON(w, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ent := s.store.delete(id)
	live := ent != nil
	if live {
		s.metrics.evicted(evictExplicit)
		// After a write of this session already in flight, so the
		// deletion is what the snapshot store keeps.
		ent.persistMu.Lock()
		defer ent.persistMu.Unlock()
	}
	// A dormant session (snapshot only) answers by this ID too; delete must
	// remove its snapshot or the session would resurrect on next access.
	if s.cfg.Snapshots != nil && s.snapshotDelete(id) {
		live = true
	}
	if !live {
		writeError(w, http.StatusNotFound, "unknown_session", "", "",
			"no live session "+fmt.Sprintf("%q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFlush forces a snapshot write of the session (persistence must be
// configured). Clients checkpoint explicitly before risky operations; the
// kill-restart test uses it to bound what a SIGKILL may lose.
func (s *Server) handleFlush(w http.ResponseWriter, _ *http.Request, ent *sessionEntry) {
	if s.cfg.Snapshots == nil {
		writeError(w, http.StatusConflict, "no_snapshot_store", "", "",
			"server runs without a snapshot store (-store-dir)")
		return
	}
	if err := s.snapshotWrite(ent, false); err != nil {
		// The client's checkpoint did not land, and the error detail says
		// why; the periodic flush keeps trying in the background.
		writeError(w, http.StatusInternalServerError, "snapshot_failed", "", "",
			"snapshot write failed: "+err.Error())
		return
	}
	s.store.unpin(ent)
	writeJSON(w, map[string]any{"flushed": true, "id": ent.ID})
}

// ---- edits ----

// editOp is one mutation in a batch. Op is "add", "move" or "del"; Rect is
// [x0, y0, x1, y1] in nm. Index is required for move/del (a pointer, so an
// omitted field is rejected instead of silently targeting feature 0).
type editOp struct {
	Op    string  `json:"op"`
	Rect  []int64 `json:"rect,omitempty"`
	Layer int     `json:"layer,omitempty"`
	Index *int    `json:"index,omitempty"`
}

type editsRequest struct {
	Ops []editOp `json:"ops"`
}

type editsResponse struct {
	Applied  int `json:"applied"`
	Features int `json:"features"`
	// Added holds, per "add" op in order, the feature's index after the
	// whole merged batch: later del ops — from this request or any request
	// coalesced into the same batch — shift indices down, and an added
	// feature deleted later in the batch reports -1.
	Added []int `json:"added,omitempty"`
	// Gen is the session generation the batch committed at; read-stage
	// responses and stream events computed at the same generation reflect
	// exactly this state.
	Gen int64 `json:"gen"`
	// Incremental is the session's cumulative reuse profile after the
	// batch: detection-shard, hierarchical-cluster and DRC-pair counters
	// showing how much each re-run of this session has been reusing versus
	// recomputing.
	Incremental aapsm.IncrementalStats `json:"incremental"`
	// Batch is this request's coalescing receipt: where it landed in its
	// merged batch and its queue/solve timing breakdown.
	Batch *batchInfo `json:"batch,omitempty"`
	// Detect, with ?detect=1, is the post-batch detection — computed once
	// per merged batch and shared by every item that asked. DetectError
	// carries the failure instead when that shared re-pipeline failed (the
	// edits themselves still applied).
	Detect      *detectResponse `json:"detect,omitempty"`
	DetectError string          `json:"detect_error,omitempty"`
}

// handleEdits validates a batch of layout mutations, hands it to the
// per-session coalescer, and waits for its slice of the merged batch result.
// Within one request the ops stay all-or-nothing: index ranges are simulated
// against the running feature count before anything applies, so a rejected
// request 422s alone while other requests coalesced into the same batch
// land. Memoized stages are invalidated once per merged batch; with
// ?detect=1 the batch runner re-detects once and every waiter shares the
// result.
func (s *Server) handleEdits(w http.ResponseWriter, r *http.Request, ent *sessionEntry) {
	var req editsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "", "", "invalid edit batch: "+err.Error())
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "", "", "empty edit batch")
		return
	}
	// Validate shapes before enqueueing; range checks happen inside the
	// batch runner where the authoritative feature count lives.
	for _, op := range req.Ops {
		switch op.Op {
		case "add":
			if len(op.Rect) != 4 {
				writeError(w, http.StatusBadRequest, "bad_request", "", "",
					fmt.Sprintf("op %q needs rect [x0 y0 x1 y1], got %d values", op.Op, len(op.Rect)))
				return
			}
		case "move", "del":
			if op.Index == nil {
				writeError(w, http.StatusBadRequest, "bad_request", "", "", fmt.Sprintf("op %q needs an explicit index", op.Op))
				return
			}
			if op.Op == "move" && len(op.Rect) != 4 {
				writeError(w, http.StatusBadRequest, "bad_request", "", "",
					fmt.Sprintf("op %q needs rect [x0 y0 x1 y1], got %d values", op.Op, len(op.Rect)))
				return
			}
		default:
			writeError(w, http.StatusBadRequest, "bad_request", "", "", fmt.Sprintf("unknown op %q (want add, move or del)", op.Op))
			return
		}
	}
	it := &editItem{
		ops:    req.Ops,
		detect: r.URL.Query().Get("detect") == "1",
		enq:    time.Now(),
		done:   make(chan struct{}),
	}
	s.enqueueEdit(ent, it)
	select {
	case <-it.done:
	case <-r.Context().Done():
		// The ops cannot be retracted — they will still apply with their
		// batch — but nobody is listening for the answer.
		writeError(w, http.StatusServiceUnavailable, "cancelled", "edit", "",
			"request cancelled while queued for its edit batch (ops still apply)")
		return
	}
	if it.rangeErr != nil {
		writeError(w, http.StatusUnprocessableEntity, "bad_index", "edit", "", it.rangeErr.Error()+" (no ops of this request applied)")
		return
	}
	if it.flowErr != nil {
		s.flowError(w, it.flowErr)
		return
	}
	b := it.batch
	writeJSON(w, editsResponse{
		Applied:     it.applied,
		Features:    it.features,
		Added:       it.added,
		Gen:         it.gen,
		Incremental: it.inc,
		Batch:       &b,
		Detect:      it.detResp,
		DetectError: it.detErr,
	})
}

// ---- pipeline stages ----

// conflictJSON is one detected conflict in wire form.
type conflictJSON struct {
	Edge     int    `json:"edge"`
	Kind     string `json:"kind"` // "overlap" or "feature"
	Shifters [2]int `json:"shifters"`
	Feature  int    `json:"feature"` // critical feature index; -1 for overlap conflicts
	Deficit  int64  `json:"deficit"`
}

type detectStatsJSON struct {
	GraphNodes    int   `json:"graph_nodes"`
	GraphEdges    int   `json:"graph_edges"`
	CrossingPairs int   `json:"crossing_pairs"`
	Shards        int   `json:"shards"`
	ReusedShards  int   `json:"reused_shards"`
	TotalNS       int64 `json:"total_ns"`
}

type detectResponse struct {
	ID         string          `json:"id"`
	Graph      string          `json:"graph"`
	Features   int             `json:"features"`
	Assignable bool            `json:"assignable"`
	Conflicts  []conflictJSON  `json:"conflicts"`
	Stats      detectStatsJSON `json:"stats"`
}

// buildDetectResponse converts a session's detection result to the wire
// form. It is shared by the HTTP handler and by tests that compare the
// served bytes against an in-process oracle session.
func buildDetectResponse(id string, sess *aapsm.Session, res *aapsm.Result) detectResponse {
	conflicts := make([]conflictJSON, 0, len(res.Conflicts()))
	for _, c := range res.Conflicts() {
		cj := conflictJSON{
			Edge:     c.Edge,
			Shifters: [2]int{c.Meta.S1, c.Meta.S2},
			Feature:  -1,
			Deficit:  c.Deficit,
		}
		if c.Meta.Kind == core.FeatureEdge {
			cj.Kind = "feature"
			cj.Feature = c.Meta.Feature
		} else {
			cj.Kind = "overlap"
		}
		conflicts = append(conflicts, cj)
	}
	st := res.Detection.Stats
	return detectResponse{
		ID:         id,
		Graph:      res.Graph.Kind.String(),
		Features:   sess.NumFeatures(),
		Assignable: res.Assignable(),
		Conflicts:  conflicts,
		Stats: detectStatsJSON{
			GraphNodes:    st.GraphNodes,
			GraphEdges:    st.GraphEdges,
			CrossingPairs: st.CrossingPairs,
			Shards:        st.Shards,
			ReusedShards:  st.ReusedShards,
			TotalNS:       st.TotalTime.Nanoseconds(),
		},
	}
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request, ent *sessionEntry) {
	res, err := ent.Sess.Detect(r.Context())
	if err != nil {
		s.flowError(w, err)
		return
	}
	s.metrics.detects.Add(1)
	writeJSON(w, buildDetectResponse(ent.ID, ent.Sess, res))
}

type assignResponse struct {
	ID     string `json:"id"`
	Phases []int  `json:"phases"` // 0 or 180 per shifter
	Waived int    `json:"waived"`
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request, ent *sessionEntry) {
	a, err := ent.Sess.Assignment(r.Context())
	if err != nil {
		s.flowError(w, err)
		return
	}
	phases := make([]int, len(a.Phases))
	for i, p := range a.Phases {
		if p == core.Phase180 {
			phases[i] = 180
		}
	}
	writeJSON(w, assignResponse{ID: ent.ID, Phases: phases, Waived: len(a.Waived)})
}

type correctResponse struct {
	ID           string  `json:"id"`
	Cuts         int     `json:"cuts"`
	Unfixable    int     `json:"unfixable"`
	AreaBefore   int64   `json:"area_before"`
	AreaAfter    int64   `json:"area_after"`
	AreaIncrease float64 `json:"area_increase_pct"`
	Layout       string  `json:"layout,omitempty"` // corrected layout text with ?include_layout=1
}

func (s *Server) handleCorrect(w http.ResponseWriter, r *http.Request, ent *sessionEntry) {
	cor, err := ent.Sess.Correction(r.Context())
	if err != nil {
		s.flowError(w, err)
		return
	}
	resp := correctResponse{
		ID:           ent.ID,
		Cuts:         len(cor.Plan.Cuts),
		Unfixable:    len(cor.Plan.Unfixable),
		AreaBefore:   cor.Stats.AreaBefore,
		AreaAfter:    cor.Stats.AreaAfter,
		AreaIncrease: cor.Stats.AreaIncrease,
	}
	if r.URL.Query().Get("include_layout") == "1" {
		var buf bytes.Buffer
		if err := aapsm.WriteLayoutText(&buf, cor.Layout); err != nil {
			s.flowError(w, err)
			return
		}
		resp.Layout = buf.String()
	}
	writeJSON(w, resp)
}

type drcResponse struct {
	ID         string   `json:"id"`
	Violations []string `json:"violations"`
}

func (s *Server) handleDRC(w http.ResponseWriter, _ *http.Request, ent *sessionEntry) {
	vs := ent.Sess.DRC()
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	writeJSON(w, drcResponse{ID: ent.ID, Violations: out})
}

func (s *Server) handleMask(w http.ResponseWriter, r *http.Request, ent *sessionEntry) {
	m, err := ent.Sess.Mask(r.Context())
	if err != nil {
		s.flowError(w, err)
		return
	}
	writeLayoutBody(w, r, m)
}

func (s *Server) handleLayout(w http.ResponseWriter, r *http.Request, ent *sessionEntry) {
	writeLayoutBody(w, r, ent.Sess.SnapshotLayout())
}

// writeLayoutBody serializes a layout as the response body: text by default,
// GDSII with ?format=gds.
func writeLayoutBody(w http.ResponseWriter, r *http.Request, l *aapsm.Layout) {
	var buf bytes.Buffer
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
		if err := aapsm.WriteLayoutText(&buf, l); err != nil {
			writeFlowError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	case "gds":
		if err := aapsm.WriteGDS(&buf, l); err != nil {
			writeFlowError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
	default:
		writeError(w, http.StatusBadRequest, "bad_format", "", "", fmt.Sprintf("unknown format %q (want text or gds)", format))
		return
	}
	w.Write(buf.Bytes())
}

func (s *Server) handleSVG(w http.ResponseWriter, r *http.Request, ent *sessionEntry) {
	// Render to a buffer first: RenderSVG streams, and a stage error after
	// the first write would corrupt an already-started 200 response.
	var buf bytes.Buffer
	if err := ent.Sess.RenderSVG(r.Context(), &buf); err != nil {
		s.flowError(w, err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Write(buf.Bytes())
}

// ---- health and metrics ----

type healthResponse struct {
	Status      string `json:"status"` // "ok" or "draining"
	Sessions    int    `json:"sessions"`
	Parallelism int    `json:"parallelism"`
	UptimeS     int64  `json:"uptime_s"`
}

// handleHealthz reports liveness. While draining it answers 503 so load
// balancers pull the instance, which is what makes shutdown graceful: new
// traffic stops arriving while in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := healthResponse{
		Status:      "ok",
		Sessions:    s.store.len(),
		Parallelism: s.cfg.Engine.Parallelism(),
		UptimeS:     int64(s.cfg.now().Sub(s.metrics.start).Seconds()),
	}
	if s.Draining() {
		resp.Status = "draining"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

// readyResponse is the /readyz body. Status is "ok", "draining", or
// "degraded" (the persistence store is failing writes; sessions whose
// eviction failed are pinned in memory until a flush writes them).
type readyResponse struct {
	Status     string `json:"status"`
	Sessions   int    `json:"sessions"`
	Pinned     int    `json:"pinned"`
	StoreError string `json:"store_error,omitempty"`
}

// handleReadyz reports readiness, distinct from /healthz liveness: a daemon
// whose snapshot store is failing writes is alive (keep it running — it
// holds unpersisted sessions pinned in memory) but not ready (stop routing
// new sessions to it until the store recovers).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	streak, lastErr := s.health.snapshot()
	resp := readyResponse{
		Status:   "ok",
		Sessions: s.store.len(),
		Pinned:   s.store.pinnedCount(),
	}
	switch {
	case s.Draining():
		resp.Status = "draining"
	case s.cfg.Snapshots != nil && streak > 0:
		resp.Status = "degraded"
		resp.StoreError = lastErr
	}
	if resp.Status != "ok" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	s.exposition.write(&buf)
	io.Copy(w, &buf)
}
