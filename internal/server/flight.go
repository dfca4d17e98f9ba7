package server

import (
	"context"
	"sync"
)

// flight is the server's one single-flight primitive. It coalesces session
// creation (keyed by layout hash), snapshot rehydration (by session ID) and
// read-stage requests (by stage, variant and session generation).
//
// Concurrent do calls for one key run fn exactly once; the others wait and
// share its value and error. A waiting follower gives up with its own
// ctx.Err() when its context ends first. Nothing outlives the call: once fn
// returns, its key is free and the next do runs fn again. A follower is
// never handed the leader's own failure: when fn failed after the leader's
// context ended (or panicked), a follower whose context is live retries and
// may become the next leader.
type flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V] // guarded by mu
}

// flightCall is one in-flight call. val, err and retry are written by the
// leader before done is closed and only read after it.
type flightCall[V any] struct {
	done  chan struct{}
	val   V
	err   error
	retry bool // the outcome is the leader's own: followers run again
}

// do returns fn's outcome for key, running fn only if no call for key is in
// flight. shared reports that the outcome (or the wait for it) came from
// another caller's call.
func (f *flight[K, V]) do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	for {
		c, ok := f.calls[key]
		if !ok {
			break
		}
		f.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
		if !c.retry {
			return c.val, true, c.err
		}
		if err := ctx.Err(); err != nil {
			return v, true, err
		}
		f.mu.Lock()
	}
	c := &flightCall[V]{done: make(chan struct{}), retry: true}
	if f.calls == nil {
		f.calls = make(map[K]*flightCall[V])
	}
	f.calls[key] = c
	f.mu.Unlock()

	// Deferred so a panicking fn still releases its followers (to retry)
	// and frees the key.
	defer func() {
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	c.retry = c.err != nil && ctx.Err() != nil
	return c.val, false, c.err
}
