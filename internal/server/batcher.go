package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	aapsm "repro"
)

// This file implements the per-session request coalescing layer:
//
//   - editBatcher collects concurrent POST /edits requests into one size- and
//     maxWait-bounded Session.Edit batch, runs a single incremental
//     re-pipeline for the whole batch, and fans the results back out over
//     per-waiter channels. Errors are attributed per item: a bad op 422s only
//     its own waiter (its ops are simulated against the running feature count
//     before anything applies, preserving the all-or-nothing contract within
//     each submitted request), while every other item in the batch lands.
//   - a per-stage read single-flight keyed on the session generation, so
//     identical detect/assign/correct/drc/mask/layout/svg requests in flight
//     together at the same edit epoch compute and encode the response once.
//     Nothing is kept once the leader returns: the session memoizes each
//     stage's result, so a later read pays only the encoding again.
//   - the edit-notification broadcast streaming connections wait on.

// editItem is one enqueued edit request: its parsed ops going in, and the
// per-item slice of the batch outcome coming back. Result fields are written
// only by the batch runner before done is closed, and read only by the
// waiting handler after it — no lock needed.
type editItem struct {
	ops    []editOp
	detect bool // run (and attach) the post-batch detection
	enq    time.Time
	done   chan struct{}

	// Outcome: rangeErr answers 422 bad_index, flowErr goes through the
	// typed flow-error mapping, otherwise the item succeeded.
	rangeErr error
	flowErr  error

	applied  int
	added    []int
	features int
	gen      int64
	inc      aapsm.IncrementalStats
	batch    batchInfo
	detResp  *detectResponse
	detErr   string
}

// batchInfo is the per-item coalescing receipt attached to edit responses.
type batchInfo struct {
	// Seq numbers the merged batches of one session; Pos/Size place this
	// item inside its batch. Replaying items sorted by (seq, pos) reproduces
	// the exact committed order.
	Seq  int64 `json:"seq"`
	Pos  int   `json:"pos"`
	Size int   `json:"size"`
	// QueueNS is how long the item waited between arrival and its batch
	// being collected (includes the coalescing linger); SolveNS is the
	// merged batch's apply + re-pipeline time, shared by every item in it.
	QueueNS int64 `json:"queue_ns"`
	SolveNS int64 `json:"solve_ns"`
}

// editBatcher is the per-session coalescing state. One batch runner exists
// while the queue is non-empty; it is started by the first enqueue and exits
// when the queue drains.
type editBatcher struct {
	mu sync.Mutex
	// queue, running and seq are the batch state: all guarded by mu.
	queue   []*editItem // guarded by mu
	running bool        // guarded by mu
	seq     int64       // guarded by mu
	// kick wakes a lingering runner when a new item arrives (buffered so
	// enqueues never block).
	kick chan struct{}

	// notify is closed and replaced after every committed batch; streaming
	// connections fetch it, re-read the generation, and wait. Guarded by mu.
	notify chan struct{}

	// reads is the read single-flight: identical read-stage requests in
	// flight together at one session generation share a single computation
	// and encoding.
	reads flight[readKey, *captureWriter]
}

func newEditBatcher() *editBatcher {
	return &editBatcher{
		kick:   make(chan struct{}, 1),
		notify: make(chan struct{}),
	}
}

// editNotify returns the channel the next committed batch will close.
// Readers must fetch the channel BEFORE reading the generation they are
// comparing against, or a batch landing in between is missed.
func (b *editBatcher) editNotify() <-chan struct{} {
	b.mu.Lock()
	ch := b.notify
	b.mu.Unlock()
	return ch
}

// broadcast wakes every stream waiting for the next batch.
func (b *editBatcher) broadcast() {
	b.mu.Lock()
	close(b.notify)
	b.notify = make(chan struct{})
	b.mu.Unlock()
}

// enqueueEdit hands one edit request to the session's batcher, starting the
// batch runner if none is active. The runner holds its own store reference so
// it stays valid even if every waiter gives up and releases the entry.
func (s *Server) enqueueEdit(ent *sessionEntry, it *editItem) {
	b := ent.batch
	b.mu.Lock()
	b.queue = append(b.queue, it)
	wasRunning := b.running
	b.running = true
	b.mu.Unlock()
	select {
	case b.kick <- struct{}{}:
	default:
	}
	if !wasRunning {
		s.store.hold(ent)
		go s.runEditBatches(ent)
	}
}

// runEditBatches is the per-session batch runner: collect a size/maxWait
// bounded batch, process it, repeat until the queue drains.
func (s *Server) runEditBatches(ent *sessionEntry) {
	defer s.store.release(ent)
	b := ent.batch
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.running = false
			b.mu.Unlock()
			return
		}
		first := b.queue[0].enq
		b.mu.Unlock()
		if wait := s.cfg.BatchWait; wait > 0 {
			s.lingerForBatch(b, first.Add(wait))
		}
		b.mu.Lock()
		n := len(b.queue)
		if max := s.cfg.BatchMax; max > 0 && n > max {
			n = max
		}
		b.seq++
		seq := b.seq
		items := make([]*editItem, n)
		copy(items, b.queue)
		b.queue = append(b.queue[:0:0], b.queue[n:]...)
		b.mu.Unlock()
		s.processBatch(ent, seq, items)
		b.broadcast()
	}
}

// lingerForBatch waits until the queue reaches BatchMax or the deadline
// passes, so near-simultaneous edits coalesce instead of racing the runner.
func (s *Server) lingerForBatch(b *editBatcher, deadline time.Time) {
	for {
		b.mu.Lock()
		full := s.cfg.BatchMax > 0 && len(b.queue) >= s.cfg.BatchMax
		b.mu.Unlock()
		if full {
			return
		}
		d := time.Until(deadline)
		if d <= 0 {
			return
		}
		t := time.NewTimer(d)
		select {
		case <-b.kick:
			t.Stop()
		case <-t.C:
		}
	}
}

// processBatch applies one merged batch under a single Session.Edit, runs the
// shared incremental re-pipeline, fills every item's outcome, and releases
// the waiters. A panic anywhere inside fails the batch's unanswered items
// instead of killing the runner goroutine.
func (s *Server) processBatch(ent *sessionEntry, seq int64, items []*editItem) {
	collected := time.Now()
	released := false
	release := func() {
		if released {
			return
		}
		released = true
		for _, it := range items {
			close(it.done)
		}
	}
	defer func() {
		if v := recover(); v != nil {
			s.metrics.panicsHandler.Add(1)
			if !released {
				for _, it := range items {
					if it.rangeErr == nil && it.flowErr == nil {
						it.flowErr = fmt.Errorf("edit batch panic: %v", v)
					}
				}
				release()
			}
		}
	}()

	solveStart := time.Now()
	totalApplied := 0
	err := ent.Sess.Edit(func(ed *aapsm.LayoutEditor) {
		count := ed.NumFeatures()
		for i, it := range items {
			// Simulate this item's ops against the running feature count
			// before applying any of them: range errors are the only way an
			// op can fail, so the item stays all-or-nothing and a bad item
			// 422s alone while the rest of the batch lands.
			c := count
			for k, op := range it.ops {
				switch op.Op {
				case "add":
					c++
				case "move":
					if *op.Index < 0 || *op.Index >= c {
						it.rangeErr = fmt.Errorf("op %d: move index %d out of range [0,%d)", k, *op.Index, c)
					}
				case "del":
					if *op.Index < 0 || *op.Index >= c {
						it.rangeErr = fmt.Errorf("op %d: delete index %d out of range [0,%d)", k, *op.Index, c)
					} else {
						c--
					}
				}
				if it.rangeErr != nil {
					break
				}
			}
			if it.rangeErr != nil {
				continue
			}
			count = c
			if len(it.ops) > 0 {
				// The layout is about to diverge from the content it was
				// created from; concurrent same-hash creates must stop
				// coalescing onto it now. A batch that applies nothing
				// leaves the session reattachable.
				s.store.markEdited(ent)
			}
			for _, op := range it.ops {
				switch op.Op {
				case "add":
					it.added = append(it.added, ed.AddOnLayer(aapsm.R(op.Rect[0], op.Rect[1], op.Rect[2], op.Rect[3]), op.Layer))
				case "move":
					ed.Move(*op.Index, aapsm.R(op.Rect[0], op.Rect[1], op.Rect[2], op.Rect[3]))
				case "del":
					ed.Delete(*op.Index)
					// Keep every reported add index valid after the merged
					// batch: a delete below an added feature shifts it down,
					// deleting the added feature itself voids it — across
					// items, since all items commit together.
					for _, prev := range items[:i+1] {
						for j, a := range prev.added {
							switch {
							case a == *op.Index:
								prev.added[j] = -1
							case a > *op.Index:
								prev.added[j] = a - 1
							}
						}
					}
				}
				if ed.Err() != nil {
					return
				}
				it.applied++
			}
			totalApplied += it.applied
		}
	})
	s.metrics.edits.Add(int64(totalApplied))
	if err != nil {
		// Pre-validation makes in-flight op failures unreachable, but if one
		// slips through (or Edit itself refuses), attribute it to every item
		// that did not fully land; completed items keep their success.
		for _, it := range items {
			if it.rangeErr == nil && it.applied < len(it.ops) {
				it.flowErr = err
			}
		}
	}

	// One shared incremental re-pipeline for the whole batch, when any
	// surviving item asked for it. The memoized result is what subsequent
	// read-stage requests at this generation will reuse.
	var detResp *detectResponse
	detErr := ""
	wantDetect := false
	for _, it := range items {
		if it.detect && it.rangeErr == nil && it.flowErr == nil {
			wantDetect = true
		}
	}
	if wantDetect {
		//aapsmvet:allow ctxflow a batch serves many coalesced requests, so it runs detached from any one request context, bounded by RequestTimeout below
		ctx := context.Background()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		res, derr := ent.Sess.Detect(ctx)
		if derr != nil {
			detErr = derr.Error()
		} else {
			s.metrics.detects.Add(1)
			v := buildDetectResponse(ent.ID, ent.Sess, res)
			detResp = &v
		}
	}

	solve := time.Since(solveStart)
	st := ent.Sess.Stats()
	features := ent.Sess.NumFeatures()
	gen := ent.Sess.Generation()
	s.metrics.observeBatch(len(items), solve)
	for pos, it := range items {
		it.features = features
		it.gen = gen
		it.inc = st.Incremental
		it.batch = batchInfo{
			Seq:     seq,
			Pos:     pos,
			Size:    len(items),
			QueueNS: collected.Sub(it.enq).Nanoseconds(),
			SolveNS: solve.Nanoseconds(),
		}
		if it.detect && it.rangeErr == nil && it.flowErr == nil {
			it.detResp = detResp
			it.detErr = detErr
		}
		s.metrics.observeBatchQueue(collected.Sub(it.enq))
	}
	release()
}

// ---- read-stage single-flight ----

// readKey identifies one coalescible read: the stage, its request variant
// (the raw query string — format, include_layout, …), and the session
// generation the response is computed at.
type readKey struct {
	stage   string
	variant string
	gen     int64
}

// errReadNotOK marks a read that did not answer 200: its bytes go to the
// leader and its current followers, and a follower retries instead when the
// leader's own context ended (see flight).
var errReadNotOK = errors.New("read answered non-200")

// coalesced wraps a read-stage handler in the per-stage single-flight:
// identical requests in flight together at the same session generation run
// the handler (and its JSON/SVG encoding) once and share the bytes.
func (s *Server) coalesced(stage string, h func(http.ResponseWriter, *http.Request, *sessionEntry)) func(http.ResponseWriter, *http.Request, *sessionEntry) {
	return func(w http.ResponseWriter, r *http.Request, ent *sessionEntry) {
		code, ctype, body, ok := s.readCoalesced(r, ent, stage, r.URL.RawQuery, h)
		if !ok {
			writeError(w, http.StatusServiceUnavailable, "cancelled", "", "",
				"request cancelled while waiting on an identical in-flight read")
			return
		}
		if ctype != "" {
			w.Header().Set("Content-Type", ctype)
		}
		w.WriteHeader(code)
		w.Write(body)
	}
}

// readCoalesced is the single-flight core shared by the HTTP wrappers and the
// streaming endpoint. ok=false means the caller's context expired while an
// identical leader was computing.
func (s *Server) readCoalesced(r *http.Request, ent *sessionEntry, stage, variant string,
	h func(http.ResponseWriter, *http.Request, *sessionEntry)) (code int, ctype string, body []byte, ok bool) {
	run := func() (*captureWriter, error) {
		rec := newCaptureWriter()
		h(rec, r, ent)
		if rec.code != http.StatusOK {
			return rec, errReadNotOK
		}
		return rec, nil
	}
	key := readKey{stage: stage, variant: variant, gen: ent.Sess.Generation()}
	rec, shared, err := ent.batch.reads.do(r.Context(), key, run)
	if shared {
		s.metrics.readsCoalesced.Add(1)
	}
	if err != nil && !errors.Is(err, errReadNotOK) {
		return 0, "", nil, false
	}
	return rec.code, rec.h.Get("Content-Type"), rec.buf.Bytes(), true
}

// captureWriter buffers a handler's response so the single-flight can hand
// it to every waiting caller.
type captureWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func newCaptureWriter() *captureWriter {
	return &captureWriter{h: make(http.Header), code: http.StatusOK}
}

func (c *captureWriter) Header() http.Header { return c.h }

func (c *captureWriter) WriteHeader(code int) { c.code = code }

func (c *captureWriter) Write(b []byte) (int, error) { return c.buf.Write(b) }
