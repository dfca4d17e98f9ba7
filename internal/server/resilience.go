package server

import "sync"

// This file holds the server's degraded-operation state: the persistence
// health tracker behind /readyz.
//
// The invariant it serves: a session whose snapshot cannot be persisted is
// never silently dropped. A failed eviction write keeps the session in the
// store, pinned in place (exempt from LRU/TTL eviction), and the first
// successful write — from the periodic flush, the flush endpoint or the
// drain-time FlushAll — unpins it. The periodic flush is the one background
// retry of failed writes.

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
