package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// parkCounter sends one token on parked every time a caller asks for its
// Done channel, which a flight follower does exactly when it parks on an
// in-flight call. Tests wait for tokens instead of sleeping.
type parkCounter struct {
	context.Context
	parked chan struct{}
}

func (c *parkCounter) Done() <-chan struct{} {
	c.parked <- struct{}{}
	return c.Context.Done()
}

// TestFlightSharesOneCall: N concurrent callers of one key run fn once and
// all get its value; exactly N-1 of them report a shared outcome.
func TestFlightSharesOneCall(t *testing.T) {
	const n = 16
	var f flight[string, int]
	ctx := &parkCounter{Context: t.Context(), parked: make(chan struct{}, n)}
	var runs atomic.Int32
	release := make(chan struct{})
	fn := func() (int, error) {
		runs.Add(1)
		<-release
		return 42, nil
	}
	vals := make([]int, n)
	var sharedN atomic.Int32
	var wg sync.WaitGroup
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := f.do(ctx, "k", fn)
			if err != nil {
				t.Error(err)
			}
			if shared {
				sharedN.Add(1)
			}
			vals[i] = v
		}(i)
	}
	for i := 0; i < n-1; i++ {
		<-ctx.parked
	}
	close(release)
	wg.Wait()
	if r := runs.Load(); r != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want 1", r, n)
	}
	if s := sharedN.Load(); s != n-1 {
		t.Fatalf("%d callers shared the outcome, want %d", s, n-1)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
}

// TestFlightErrorNotKept: a failed call frees its key, so the next call
// runs fn again.
func TestFlightErrorNotKept(t *testing.T) {
	var f flight[string, int]
	boom := errors.New("boom")
	if _, _, err := f.do(t.Context(), "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, shared, err := f.do(t.Context(), "k", func() (int, error) { return 7, nil })
	if err != nil || shared || v != 7 {
		t.Fatalf("call after a failure = %d shared=%v err=%v, want a fresh 7", v, shared, err)
	}
}

// TestFlightFollowerGivesUp: a follower whose context ends returns its own
// context error at once, while the leader keeps running to completion.
func TestFlightFollowerGivesUp(t *testing.T) {
	var f flight[string, int]
	release := make(chan struct{})
	entered := make(chan struct{})
	leader := make(chan int, 1)
	go func() {
		v, _, _ := f.do(t.Context(), "k", func() (int, error) {
			close(entered)
			<-release
			return 9, nil
		})
		leader <- v
	}()
	<-entered
	fctx, cancel := context.WithCancel(t.Context())
	probe := &parkCounter{Context: fctx, parked: make(chan struct{}, 1)}
	follower := make(chan error, 1)
	go func() {
		_, _, err := f.do(probe, "k", func() (int, error) { return 0, errors.New("follower ran fn") })
		follower <- err
	}()
	<-probe.parked
	cancel()
	if err := <-follower; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(release)
	if v := <-leader; v != 9 {
		t.Fatalf("leader got %d, want 9", v)
	}
}

// TestFlightRetriesLeaderFailure: a follower is never handed the leader's own
// failure. When the leader's context ended under fn, or fn panicked, a live
// follower runs fn itself.
func TestFlightRetriesLeaderFailure(t *testing.T) {
	for _, c := range []struct {
		name string
		fail func(ctx context.Context) (int, error)
	}{
		{"leader_cancelled", func(ctx context.Context) (int, error) { <-ctx.Done(); return 0, ctx.Err() }},
		{"leader_panicked", func(context.Context) (int, error) { panic("boom") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var f flight[string, int]
			lctx, cancel := context.WithCancel(t.Context())
			entered := make(chan struct{})
			proceed := make(chan struct{})
			leaderDone := make(chan struct{})
			go func() {
				defer close(leaderDone)
				defer func() { recover() }()
				f.do(lctx, "k", func() (int, error) {
					close(entered)
					<-proceed
					return c.fail(lctx)
				})
			}()
			<-entered
			probe := &parkCounter{Context: t.Context(), parked: make(chan struct{}, 2)}
			follower := make(chan int, 1)
			go func() {
				v, shared, err := f.do(probe, "k", func() (int, error) { return 5, nil })
				if err != nil || shared {
					t.Errorf("follower: shared=%v err=%v, want its own successful run", shared, err)
				}
				follower <- v
			}()
			<-probe.parked
			cancel()
			close(proceed)
			<-leaderDone
			if v := <-follower; v != 5 {
				t.Fatalf("follower got %d, want 5 from its own run", v)
			}
		})
	}
}
