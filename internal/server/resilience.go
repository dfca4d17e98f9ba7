package server

import (
	"math/rand"
	"sync"
	"time"
)

// This file holds the server's degraded-operation machinery: the bounded
// asynchronous retry queue that re-attempts failed snapshot writes with
// capped exponential backoff and the persistence health tracker behind
// /readyz.
//
// The invariant the pieces maintain together: a session whose snapshot
// cannot be persisted is never silently dropped. The eviction path readmits
// it pinned (exempt from LRU/TTL eviction), a retry is queued here, and the
// first successful write — from the retry, the periodic flush, or a later
// eviction — unpins it and clears the queue entry.

// snapRetry tracks snapshot writes awaiting an asynchronous retry, keyed by
// session ID so repeated failures of one session occupy one slot. The map is
// bounded: once full, new failures rely on the periodic flush loop as the
// backstop instead of queueing.
type snapRetry struct {
	mu      sync.Mutex
	pending map[string]int // session ID -> retry attempts scheduled so far
}

// backoffDelay returns the capped exponential backoff with ±25% jitter for
// the n-th retry attempt (0-based).
func (s *Server) backoffDelay(attempt int) time.Duration {
	min, max := s.cfg.SnapshotRetryMin, s.cfg.SnapshotRetryMax
	d := min
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter desynchronizes retries of many sessions that failed together
	// (one disk-full event fails a whole flush sweep at once).
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	return d + jitter
}

// scheduleRetry queues an asynchronous snapshot retry for session id. New
// sessions are refused once the queue is full (the periodic flush still
// covers them); a session already queued reschedules with its next backoff
// step.
func (s *Server) scheduleRetry(id string) {
	if s.cfg.Snapshots == nil || s.cfg.SnapshotRetryQueue <= 0 {
		return
	}
	s.retry.mu.Lock()
	attempt, queued := s.retry.pending[id]
	if !queued {
		if len(s.retry.pending) >= s.cfg.SnapshotRetryQueue {
			s.retry.mu.Unlock()
			return
		}
		attempt = 0
	}
	s.retry.pending[id] = attempt + 1
	s.retry.mu.Unlock()
	time.AfterFunc(s.backoffDelay(attempt), func() { s.retrySnapshot(id) })
}

// retrySnapshot is the timer callback: re-attempt the snapshot write for a
// queued session. A session that is no longer live has nothing to persist
// (it was either written by another path or explicitly deleted), so its
// queue entry is dropped. A failed attempt reschedules with the next
// backoff step; snapshotWrite clears the entry on success.
func (s *Server) retrySnapshot(id string) {
	select {
	case <-s.stop:
		s.clearRetry(id)
		return
	default:
	}
	ent, ok := s.store.get(id)
	if !ok {
		s.clearRetry(id)
		return
	}
	defer s.store.release(ent)
	s.metrics.snapshotRetries.Add(1)
	if s.snapshotWrite(ent) != nil {
		s.scheduleRetry(id)
	}
}

// clearRetry drops a session's queue entry (snapshot written, or session
// gone).
func (s *Server) clearRetry(id string) {
	s.retry.mu.Lock()
	delete(s.retry.pending, id)
	s.retry.mu.Unlock()
}

// pendingRetries returns the number of sessions queued for a snapshot
// retry.
func (s *Server) pendingRetries() int {
	s.retry.mu.Lock()
	defer s.retry.mu.Unlock()
	return len(s.retry.pending)
}

// storeHealth summarizes recent persistence-store behavior for the
// readiness probe: consecutive write failures mark the store degraded, one
// success clears it.
type storeHealth struct {
	mu      sync.Mutex
	streak  int    // consecutive snapshot-write failures
	lastErr string // most recent failure, for the /readyz body
}

func (h *storeHealth) noteErr(err error) {
	h.mu.Lock()
	h.streak++
	h.lastErr = err.Error()
	h.mu.Unlock()
}

func (h *storeHealth) noteOK() {
	h.mu.Lock()
	h.streak = 0
	h.lastErr = ""
	h.mu.Unlock()
}

func (h *storeHealth) snapshot() (streak int, lastErr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.streak, h.lastErr
}

// Ready reports whether the server should receive traffic: serving (not
// draining) and, when persistence is configured, the store healthy (no
// current failure streak). A degraded store keeps /healthz green — the
// daemon is alive and serving from memory — but flips /readyz so
// orchestrators stop routing new sessions to an instance that cannot
// persist them.
func (s *Server) Ready() bool {
	if s.Draining() {
		return false
	}
	if s.cfg.Snapshots != nil {
		if streak, _ := s.health.snapshot(); streak > 0 {
			return false
		}
	}
	return true
}
