// Package server implements aapsmd, the long-running AAPSM layout service:
// an HTTP/JSON facade over the Engine/Session pipeline with a bounded
// LRU+TTL session store, single-flight creation coalescing, per-request
// timeouts, typed error responses, health and Prometheus-style metrics
// endpoints, graceful drain, and optional session persistence (a snapshot
// store) for crash-restart rehydration.
//
// Every pipeline stage of the paper's flow is separately addressable:
//
//	POST   /v1/sessions                  create a session (layout text or GDS body)
//	GET    /v1/sessions/{id}             session info and work counters
//	DELETE /v1/sessions/{id}             drop the session
//	POST   /v1/sessions/{id}/edits       batched add/move/del edits (incremental re-detect)
//	POST   /v1/sessions/{id}/flush       force a snapshot write (persistence configured)
//	GET    /v1/sessions/{id}/detect      conflict detection
//	GET    /v1/sessions/{id}/assign      phase assignment
//	GET    /v1/sessions/{id}/correct     end-to-end-space correction
//	GET    /v1/sessions/{id}/drc         design-rule check
//	GET    /v1/sessions/{id}/mask        mask view (text or GDS)
//	GET    /v1/sessions/{id}/layout      current layout export (text or GDS)
//	GET    /v1/sessions/{id}/svg         SVG render with overlays
//	GET    /v1/sessions/{id}/stream      SSE stream: per-stage results after every edit batch
//	GET    /healthz                      liveness (503 while draining)
//	GET    /readyz                       readiness (503 while draining or persistence-degraded)
//	GET    /metrics                      Prometheus text metrics
package server

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	aapsm "repro"
	"repro/internal/persist"
)

// Config parameterizes a Server. The zero value of every field selects a
// production-safe default.
type Config struct {
	// Engine is the shared pipeline engine; nil builds one with default
	// rules.
	Engine *aapsm.Engine
	// StoreCapacity bounds the number of live sessions (LRU eviction past
	// it). Default 1024.
	StoreCapacity int
	// SessionTTL is the idle lifetime of a stored session; every access
	// refreshes it. A background sweep enforces it every TTL/4 (at least
	// every second), so an access before the sweep keeps the session.
	// 0 means the default 30m; negative disables expiry.
	SessionTTL time.Duration
	// RequestTimeout bounds each request's pipeline work via context
	// cancellation. 0 means the default 60s; negative disables the limit.
	RequestTimeout time.Duration
	// DetectWorkers bounds one session's shard fan-out (see
	// Engine.NewSessionWithParallelism). Default 1: request-level
	// concurrency is the parallelism axis of a multi-tenant server.
	DetectWorkers int
	// MaxBodyBytes caps uploaded layout bodies. Default 32 MiB.
	MaxBodyBytes int64

	// Snapshots, when set, persists sessions across process restarts:
	// sessions are snapshotted on LRU/TTL eviction, on the periodic flush,
	// and on demand (the flush endpoint / FlushAll at drain); a session that
	// is not live is rehydrated from its snapshot on the next request, and
	// creating a session whose content hash matches a pristine snapshot
	// reattaches instead of re-detecting. The engine configuration must
	// match the one the snapshots were taken under (mismatched snapshots
	// count as corrupt and are ignored).
	Snapshots persist.Store
	// FlushInterval is the period of the background snapshot flush of live
	// sessions. The flush is also the retry for failed snapshot writes: it
	// rewrites pinned sessions too, and the first success unpins them.
	// A failed write marks /readyz degraded until the next successful write,
	// so with the default the daemon reports ready again at most one
	// interval after the store recovers. 0 means the default 30s (when
	// Snapshots is set); negative disables periodic flushing: eviction and
	// drain still snapshot, but after a write failure a pinned session and
	// the degraded /readyz both wait for an explicit flush that succeeds.
	FlushInterval time.Duration

	// MaxInflight bounds concurrently admitted API requests (health, ready
	// and metrics probes are exempt). Requests past the bound queue for up
	// to QueueWait and are then shed with a typed 429. 0 means the default
	// 256; negative disables admission control.
	MaxInflight int
	// QueueWait is how long an arriving request may wait for an admission
	// slot before being shed. 0 means the default 1s; negative sheds
	// immediately when the server is saturated.
	QueueWait time.Duration
	// MaxSessionInflight bounds concurrent requests touching one session;
	// past it the request queues for up to QueueWait (same timer/cancel
	// logic as the global semaphore) and is then shed with 429
	// session_busy. 0 means the default 16; negative disables the
	// per-session bound.
	MaxSessionInflight int

	// BatchMax caps how many concurrent edit requests coalesce into one
	// merged Session.Edit batch (and one shared incremental re-pipeline).
	// 0 means the default 32; negative disables coalescing (every request
	// is its own batch).
	BatchMax int
	// BatchWait is how long the batch runner lingers after the first queued
	// edit to let near-simultaneous requests coalesce (the maxWait bound of
	// the batcher). 0 means the default 2ms; negative disables the linger —
	// batches then form only from requests arriving while a previous batch
	// is solving (group commit).
	BatchWait time.Duration

	// MaxStreams bounds concurrent streaming connections
	// (GET /v1/sessions/{id}/stream); past it streams are shed with 429
	// stream_limit. Streams are exempt from MaxInflight/MaxSessionInflight.
	// 0 means the default 256; negative disables the bound.
	MaxStreams int
	// StreamHeartbeat is the idle keep-alive period of streaming
	// connections (`: ping` comments). 0 means the default 15s.
	StreamHeartbeat time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Engine == nil {
		c.Engine = aapsm.NewEngine()
	}
	if c.StoreCapacity == 0 {
		c.StoreCapacity = 1024
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.SessionTTL < 0 {
		c.SessionTTL = 0 // store interprets 0 as "no expiry"
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.DetectWorkers <= 0 {
		c.DetectWorkers = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 30 * time.Second
	}
	if c.FlushInterval < 0 {
		c.FlushInterval = 0
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.MaxInflight < 0 {
		c.MaxInflight = 0
	}
	if c.QueueWait == 0 {
		c.QueueWait = time.Second
	}
	if c.QueueWait < 0 {
		c.QueueWait = 0
	}
	if c.MaxSessionInflight == 0 {
		c.MaxSessionInflight = 16
	}
	if c.MaxSessionInflight < 0 {
		c.MaxSessionInflight = 0
	}
	if c.BatchMax == 0 {
		c.BatchMax = 32
	}
	if c.BatchMax < 0 {
		c.BatchMax = 1
	}
	if c.BatchWait == 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.BatchWait < 0 {
		c.BatchWait = 0
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 256
	}
	if c.MaxStreams < 0 {
		c.MaxStreams = 0
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the aapsmd request handler plus its session store and metrics.
// Create with New, mount Handler on an http.Server, and call BeginDrain
// before http.Server.Shutdown, then FlushAll and Close once drained.
type Server struct {
	cfg        Config
	store      *sessionStore
	metrics    *metrics
	exposition *registry // the /metrics families over metrics and live state
	mux        *http.ServeMux
	stop       chan struct{}

	// Admission semaphore (nil when admission control is disabled), the
	// concurrent-stream bound, and the persistence health the readiness
	// probe reports.
	sem       chan struct{}
	streamSem chan struct{}
	health    storeHealth

	// Snapshot index: which snapshot the store holds per session ID, and —
	// for pristine snapshots — per content hash, loaded from
	// cfg.Snapshots.List at startup and maintained on every write/delete.
	// rehydrating single-flights concurrent restores of one session ID.
	snapMu      sync.Mutex
	snapByID    map[string]persist.Ref
	snapByHash  map[string]persist.Ref
	rehydrating flight[string, *sessionEntry]

	// Per-profile engine cache: sessions created with ?profile= run under an
	// engine configured from the named registry profile but sharing every
	// other knob of the base engine. Keyed by profile name.
	engMu   sync.Mutex
	engines map[string]*aapsm.Engine
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		metrics:    newMetrics(cfg.now()),
		mux:        http.NewServeMux(),
		stop:       make(chan struct{}),
		snapByID:   make(map[string]persist.Ref),
		snapByHash: make(map[string]persist.Ref),
		engines:    make(map[string]*aapsm.Engine),
	}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.MaxStreams > 0 {
		s.streamSem = make(chan struct{}, cfg.MaxStreams)
	}
	s.store = newSessionStore(cfg.StoreCapacity, cfg.SessionTTL, cfg.now, s.onEvict)
	s.store.slotCap = cfg.MaxSessionInflight
	s.exposition = s.declareMetrics()
	if cfg.Snapshots != nil {
		if refs, err := cfg.Snapshots.List(); err == nil {
			for _, ref := range refs {
				s.store.reserve(ref.ID)
				s.snapByID[ref.ID] = ref
				if !ref.Edited {
					s.snapByHash[ref.Hash] = ref
				}
			}
		}
	}
	s.routes()
	go s.sweepLoop()
	if cfg.Snapshots != nil && cfg.FlushInterval > 0 {
		go s.flushLoop()
	}
	return s
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into draining mode: /healthz starts answering
// 503 so load balancers stop routing new work, while in-flight and
// still-arriving requests keep being served until the caller's
// http.Server.Shutdown completes the connection drain.
func (s *Server) BeginDrain() { s.metrics.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.metrics.draining.Load() }

// Close releases the background sweeper and flusher. The server must not be
// used after Close.
func (s *Server) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
}

// Sessions returns the live session count.
func (s *Server) Sessions() int { return s.store.len() }

// FlushAll snapshots every live session to the snapshot store (no-op
// without one). aapsmd calls it after the connection drain so a graceful
// shutdown persists even sessions that were never evicted. The next flush
// retries a failed write; a pinned session stays live until one succeeds.
func (s *Server) FlushAll() {
	if s.cfg.Snapshots == nil {
		return
	}
	for _, e := range s.store.snapshotEntries() {
		if s.snapshotWrite(e, false) == nil {
			s.store.unpin(e)
		}
		s.store.release(e)
	}
}

// flushLoop periodically persists live sessions so a crash loses at most
// one flush interval of session work. It is also the background retry of
// failed snapshot writes.
func (s *Server) flushLoop() {
	t := time.NewTicker(s.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.FlushAll()
		case <-s.stop:
			return
		}
	}
}

// onEvict is the store's eviction callback: metrics, then — with
// persistence configured — a final snapshot. It runs outside the store
// mutex and only while no request holds the entry, so taking the session
// lock here is safe. A false result keeps the session in the store, pinned
// (exempt from LRU and TTL eviction): the store refused the snapshot, and
// evicting now would lose the session. The first successful write —
// periodic flush, flush endpoint or drain — unpins it.
func (s *Server) onEvict(e *sessionEntry, why evictReason) bool {
	s.metrics.evicted(why)
	return s.cfg.Snapshots == nil || s.snapshotWrite(e, true) == nil
}

// snapshotWrite persists one session and updates the snapshot index. An
// eviction write (evicting) whose bytes equal the last snapshot this entry
// stored skips the Put; flushes always write, as they are the store-health
// probe behind /readyz. A deleted session is not written. The flush paths
// unpin the session after a successful write, outside e.persistMu: the trim
// unpin starts may evict e itself, and that eviction writes e again.
func (s *Server) snapshotWrite(e *sessionEntry, evicting bool) error {
	e.persistMu.Lock()
	defer e.persistMu.Unlock()
	if !s.store.indexed(e) {
		return nil
	}
	data, err := e.Sess.Snapshot()
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	if evicting && sum == e.stored {
		return nil
	}
	ref := persist.Ref{ID: e.ID, Hash: e.Hash, Edited: s.store.isEdited(e)}
	if err := s.cfg.Snapshots.Put(ref, data); err != nil {
		// What the store holds now is unknown (a torn write lands a prefix).
		e.stored = [sha256.Size]byte{}
		s.metrics.snapshotWriteErrors.Add(1)
		s.health.noteErr(err)
		return err
	}
	e.stored = sum
	s.metrics.snapshotWrites.Add(1)
	s.health.noteOK()
	s.snapMu.Lock()
	if old, ok := s.snapByID[ref.ID]; ok && !old.Edited && ref.Edited {
		if cur, ok := s.snapByHash[old.Hash]; ok && cur.ID == ref.ID {
			delete(s.snapByHash, old.Hash)
		}
	}
	s.snapByID[ref.ID] = ref
	if !ref.Edited {
		s.snapByHash[ref.Hash] = ref
	}
	s.snapMu.Unlock()
	return nil
}

// snapshotDelete removes a session's snapshot (explicit session deletion)
// and reports whether the index held one.
func (s *Server) snapshotDelete(id string) bool {
	s.snapMu.Lock()
	ref, ok := s.snapByID[id]
	if ok {
		delete(s.snapByID, id)
		if cur, ok := s.snapByHash[ref.Hash]; ok && cur.ID == id {
			delete(s.snapByHash, ref.Hash)
		}
	}
	s.snapMu.Unlock()
	if ok {
		s.cfg.Snapshots.Delete(ref)
	}
	return ok
}

// dropSnapshot forgets an unusable (corrupt, version-skewed, or
// configuration-mismatched) snapshot so requests stop retrying it.
func (s *Server) dropSnapshot(ref persist.Ref) {
	s.metrics.snapshotCorrupt.Add(1)
	s.snapMu.Lock()
	if cur, ok := s.snapByID[ref.ID]; ok && cur == ref {
		delete(s.snapByID, ref.ID)
	}
	if cur, ok := s.snapByHash[ref.Hash]; ok && cur.ID == ref.ID {
		delete(s.snapByHash, ref.Hash)
	}
	s.snapMu.Unlock()
}

// pristineSnapshotFor returns the pristine snapshot ref for a content hash,
// if the index has one.
func (s *Server) pristineSnapshotFor(hash string) (persist.Ref, bool) {
	if s.cfg.Snapshots == nil {
		return persist.Ref{}, false
	}
	s.snapMu.Lock()
	ref, ok := s.snapByHash[hash]
	s.snapMu.Unlock()
	return ref, ok
}

// rehydrate restores session id from its snapshot and adopts it into the
// live store under its original ID. Concurrent rehydrations of the same ID
// single-flight; the returned entry (when ok) is acquired and must be
// released by the caller. A failed restore counts the snapshot corrupt and
// forgets it.
func (s *Server) rehydrate(ctx context.Context, id string) (*sessionEntry, bool) {
	if s.cfg.Snapshots == nil {
		return nil, false
	}
	for {
		ent, shared, err := s.rehydrating.do(ctx, id, func() (*sessionEntry, error) {
			return s.rehydrateLeader(ctx, id)
		})
		if err != nil {
			return nil, false
		}
		if !shared {
			return ent, true
		}
		// The leader adopted the session; a live lookup acquires it for
		// this caller, and a miss (evicted again since) tries once more.
		if ent, ok := s.store.get(id); ok {
			return ent, true
		}
	}
}

// engineFor resolves the engine serving a rules profile: the shared base
// engine for "" or its own profile, a cached per-profile engine otherwise. A
// derived engine inherits every non-rules knob (graph kind, T-join method,
// recheck mode, parallelism) from the base; an unknown profile name returns
// the registry's typed error.
func (s *Server) engineFor(profile string) (*aapsm.Engine, error) {
	base := s.cfg.Engine
	if profile == "" || profile == base.Profile() {
		return base, nil
	}
	s.engMu.Lock()
	defer s.engMu.Unlock()
	if e, ok := s.engines[profile]; ok {
		return e, nil
	}
	opt := base.DetectOptions()
	e := aapsm.NewEngine(
		aapsm.WithProfile(profile),
		aapsm.WithGraph(opt.Graph),
		aapsm.WithTJoinMethod(opt.Method),
		aapsm.WithImprovedRecheck(opt.ImprovedRecheck),
		aapsm.WithParallelism(base.Parallelism()),
	)
	if err := e.Err(); err != nil {
		return nil, err
	}
	s.engines[profile] = e
	return e, nil
}

// errNoSnapshot answers a rehydration of an ID the snapshot index does not
// hold.
var errNoSnapshot = errors.New("no snapshot for session")

// rehydrateLeader is the winning flight's restore: read the snapshot bytes,
// rebuild the session, adopt it under its original ID. The snapshot names
// the rules profile it was taken under, so the restore routes to the
// matching per-profile engine.
func (s *Server) rehydrateLeader(ctx context.Context, id string) (*sessionEntry, error) {
	// A concurrent request may have adopted the session between this
	// request's store miss and winning the flight.
	if ent, ok := s.store.get(id); ok {
		return ent, nil
	}
	s.snapMu.Lock()
	ref, ok := s.snapByID[id]
	s.snapMu.Unlock()
	if !ok {
		return nil, errNoSnapshot
	}
	data, err := s.cfg.Snapshots.Get(ref)
	if err != nil {
		s.dropSnapshot(ref)
		return nil, err
	}
	profile, err := aapsm.SnapshotProfile(data)
	if err != nil {
		s.dropSnapshot(ref)
		return nil, err
	}
	eng, err := s.engineFor(profile)
	if err != nil {
		// The snapshot names a profile this build's registry does not have;
		// it can never restore here.
		s.dropSnapshot(ref)
		return nil, err
	}
	start := time.Now()
	sess, err := eng.RestoreSessionWithParallelism(ctx, data, s.cfg.DetectWorkers)
	if err != nil {
		// A cancelled restore says nothing about the snapshot; anything
		// else (corrupt, version skew, configuration mismatch) does.
		if ctx.Err() == nil {
			s.dropSnapshot(ref)
		}
		return nil, err
	}
	s.metrics.snapshotRestores.Add(1)
	s.metrics.observeRestore(time.Since(start))
	ent, _ := s.store.adopt(ref.ID, ref.Hash, ref.Edited, sess)
	return ent, nil
}

// readStage is one session read stage: GET /v1/sessions/{id}/<name> serves
// it through the read single-flight, and a stream may subscribe to it.
type readStage struct {
	name  string
	serve func(*Server, http.ResponseWriter, *http.Request, *sessionEntry)
}

// readStages lists every read stage, in stream emit order.
var readStages = []readStage{
	{"detect", (*Server).handleDetect},
	{"assign", (*Server).handleAssign},
	{"correct", (*Server).handleCorrect},
	{"drc", (*Server).handleDRC},
	{"mask", (*Server).handleMask},
	{"layout", (*Server).handleLayout},
	{"svg", (*Server).handleSVG},
}

// handler binds the stage's handler to s.
func (st readStage) handler(s *Server) func(http.ResponseWriter, *http.Request, *sessionEntry) {
	return func(w http.ResponseWriter, r *http.Request, ent *sessionEntry) { st.serve(s, w, r, ent) }
}

func (s *Server) routes() {
	// Probes and metrics are exempt from admission control: an overloaded
	// instance must still answer its orchestrator.
	s.mux.HandleFunc("GET /healthz", s.route("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.route("readyz", false, s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", false, s.handleMetrics))
	s.mux.HandleFunc("POST /v1/sessions", s.route("create", true, s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.route("info", true, s.session(s.handleInfo)))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.route("delete", true, s.handleDelete))
	s.mux.HandleFunc("POST /v1/sessions/{id}/edits", s.route("edits", true, s.session(s.handleEdits)))
	s.mux.HandleFunc("POST /v1/sessions/{id}/flush", s.route("flush", true, s.session(s.handleFlush)))
	// Read stages go through the per-stage single-flight: identical requests
	// in flight together at one session generation compute and encode the
	// response once; nothing is kept after they return.
	for _, st := range readStages {
		s.mux.HandleFunc("GET /v1/sessions/{id}/"+st.name, s.route(st.name, true, s.session(s.coalesced(st.name, st.handler(s)))))
	}
	// Streams are long-lived: no global admission slot, no per-session slot,
	// no request timeout — bounded instead by MaxStreams and the client.
	s.mux.HandleFunc("GET /v1/sessions/{id}/stream", s.routeStream("stream", s.sessionWith(s.handleStream, false)))
}

// route wraps a handler with the cross-cutting serving concerns: panic
// isolation, admission control (when admit is set), in-flight accounting,
// the per-request pipeline timeout, and request metrics keyed by a stable
// route name (not the raw path, which would explode label cardinality).
func (s *Server) route(name string, admit bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		// Panic isolation: one broken request must not kill the daemon and
		// every other session with it. The recover turns the panic into a
		// typed 500 when the response has not started yet.
		defer func() {
			if v := recover(); v != nil {
				s.metrics.panicsHandler.Add(1)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "panic", "", "",
						fmt.Sprintf("handler panic: %v", v))
				}
			}
			s.metrics.observe(name, sw.code, time.Since(start))
		}()
		if admit && s.sem != nil {
			if !s.admitRequest(sw, r) {
				return
			}
			defer func() { <-s.sem }()
		}
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(sw, r)
	}
}

// routeStream wraps the streaming endpoint: panic isolation and request
// metrics like route, but no admission slot and no request timeout — a
// stream is long-lived by design and is bounded by MaxStreams instead.
func (s *Server) routeStream(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if v := recover(); v != nil {
				s.metrics.panicsHandler.Add(1)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "panic", "", "",
						fmt.Sprintf("handler panic: %v", v))
				}
			}
			s.metrics.observe(name, sw.code, time.Since(start))
		}()
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		h(sw, r)
	}
}

// admitRequest takes a global admission slot, queueing for up to
// cfg.QueueWait when the server is saturated. A request that cannot be
// admitted is shed with a typed 429 and a Retry-After derived from recently
// observed queue waits; an admitted request that had to queue reports its
// wait in the X-Aapsmd-Queue-Wait header and the queue-wait metrics. A
// client that disconnected while queueing is answered without Retry-After
// and counted separately (scope="client_gone") so disconnects do not pollute
// the overload signal.
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request) bool {
	return s.admitSem(w, r, s.sem, "overloaded",
		"server is at its in-flight request limit; retry shortly")
}

// admitSem is the admission core shared by the global semaphore and the
// per-session slot channels: immediate grab, bounded queue wait, then shed.
func (s *Server) admitSem(w http.ResponseWriter, r *http.Request, sem chan struct{}, code, msg string) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
	}
	if s.cfg.QueueWait <= 0 {
		s.shed(w, code, msg)
		return false
	}
	waitStart := time.Now()
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case sem <- struct{}{}:
		wait := time.Since(waitStart)
		s.metrics.observeQueueWait(wait)
		w.Header().Set("X-Aapsmd-Queue-Wait", wait.String())
		return true
	case <-t.C:
		// A timed-out wait IS an observed queue wait of the full budget;
		// feeding it into the Retry-After signal is what makes backoff grow
		// with saturation.
		s.metrics.noteQueueWait(s.cfg.QueueWait)
		s.shed(w, code, msg)
		return false
	case <-r.Context().Done():
		// The client is gone: answer without Retry-After (nobody is
		// listening) and keep it out of the overload counters — a wave of
		// disconnects is not saturation.
		s.metrics.shedClientGone.Add(1)
		writeError(w, http.StatusTooManyRequests, "client_gone", "", "",
			"request cancelled while queued for an admission slot")
		return false
	}
}

// shed rejects a request the admission layer could not seat. Retry-After is
// derived from the recently observed queue waits (rounded up to whole
// seconds, capped) so clients back off proportionally to actual saturation
// instead of a hardcoded constant.
func (s *Server) shed(w http.ResponseWriter, code, msg string) {
	if code == "session_busy" {
		s.metrics.shedSession.Add(1)
	} else {
		s.metrics.shedGlobal.Add(1)
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.metrics.retryAfterSecs()))
	writeError(w, http.StatusTooManyRequests, code, "", "", msg)
}

// session resolves the {id} path component to a stored session —
// rehydrating it from its snapshot if it is not live — before invoking the
// handler, and folds the request's incremental work profile delta into the
// per-stage reuse metrics afterwards. The entry is held (refcounted) for
// the duration of the handler, so a concurrent evict can never tear the
// session out from under the request. (Concurrent requests to the same
// session can observe overlapping deltas — the counters are operational
// telemetry, not an exact ledger.)
func (s *Server) session(h func(http.ResponseWriter, *http.Request, *sessionEntry)) http.HandlerFunc {
	return s.sessionWith(h, true)
}

// sessionWith is session with the per-session admission slot optional:
// streaming connections resolve the session but must not pin a slot for
// their whole lifetime (they would starve the very edits they watch).
func (s *Server) sessionWith(h func(http.ResponseWriter, *http.Request, *sessionEntry), useSlot bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		ent, ok := s.store.get(id)
		if !ok {
			ent, ok = s.rehydrate(r.Context(), id)
		}
		if !ok {
			writeError(w, http.StatusNotFound, "unknown_session", "", "",
				"no live session "+strconv.Quote(id)+" (expired, evicted, or never created)")
			return
		}
		defer s.store.release(ent)
		// Per-session admission: one hot session must not monopolize the
		// global in-flight budget. Saturated sessions queue with the same
		// bounded wait (timer/cancel logic) as the global semaphore.
		if useSlot && ent.slots != nil {
			if !s.admitSem(w, r, ent.slots, "session_busy",
				"session "+strconv.Quote(id)+" is at its concurrent request limit; retry shortly") {
				return
			}
			defer func() { <-ent.slots }()
		}
		before := ent.Sess.Stats().Incremental
		h(w, r, ent)
		s.metrics.observeReuse(before, ent.Sess.Stats().Incremental)
	}
}

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the wrapped writer so http.ResponseController can reach
// Flush on the real connection — the streaming endpoint depends on it.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// sweepLoop expires idle sessions in the background.
func (s *Server) sweepLoop() {
	if s.cfg.SessionTTL <= 0 {
		return
	}
	period := s.cfg.SessionTTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.store.sweep()
		case <-s.stop:
			return
		}
	}
}
