package fanout

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEachIndexOnce: every index runs exactly once, and no more than
// max(1, min(workers, n)) jobs ever run at the same time.
func TestRunEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 100} {
		for _, workers := range []int{0, 1, 3, 200} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				calls := make([]atomic.Int32, n)
				var running, peak atomic.Int32
				err := Run(context.Background(), n, workers, func(_ context.Context, i int) error {
					cur := running.Add(1)
					for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
					}
					time.Sleep(100 * time.Microsecond) // let the workers overlap
					running.Add(-1)
					calls[i].Add(1)
					return nil
				})
				if err != nil {
					t.Fatalf("Run = %v, want nil", err)
				}
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times, want 1", i, c)
					}
				}
				if limit := int32(max(1, min(workers, n))); peak.Load() > limit {
					t.Errorf("peak concurrency %d, want <= %d", peak.Load(), limit)
				}
			})
		}
	}
}

// TestRunFailureCancelsSiblings: jobs blocked on their context return once a
// sibling fails, and the sibling's error — not the cancellation it caused —
// is what Run reports.
func TestRunFailureCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int32
	err := Run(context.Background(), 4, 4, func(ctx context.Context, i int) error {
		if i == 3 {
			for started.Load() < 3 { // fail only once the others are blocked
				time.Sleep(time.Millisecond)
			}
			return boom
		}
		started.Add(1)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("sibling was not cancelled")
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want %v", err, boom)
	}
}

// TestRunErrorChoice: the lowest-indexed non-context error wins over
// lower-indexed context errors and over higher-indexed failures.
func TestRunErrorChoice(t *testing.T) {
	errs := map[int]error{
		0: context.Canceled,
		1: fmt.Errorf("job 1: %w", context.DeadlineExceeded),
		2: errors.New("job 2"),
		4: errors.New("job 4"),
	}
	// Every job starts before any returns, so each records its own error.
	var started atomic.Int32
	err := Run(context.Background(), 5, 5, func(_ context.Context, i int) error {
		started.Add(1)
		for started.Load() < 5 {
			time.Sleep(time.Millisecond)
		}
		return errs[i]
	})
	if err == nil || err.Error() != "job 2" {
		t.Fatalf("Run = %v, want job 2", err)
	}

	// With only context errors recorded, the lowest-indexed one is returned.
	err = Run(context.Background(), 3, 1, func(_ context.Context, i int) error {
		if i == 0 {
			return nil
		}
		return fmt.Errorf("job %d: %w", i, context.DeadlineExceeded)
	})
	if err == nil || err.Error() != "job 1: context deadline exceeded" {
		t.Fatalf("Run = %v, want job 1's deadline error", err)
	}
}

// TestRunCancelledBeforeStart: with the caller's context already cancelled,
// no job runs and Run reports the context error.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Run(ctx, 10, 3, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a cancelled context, want 0", ran.Load())
	}
	// No jobs, nothing to skip: a cancelled context alone is not an error.
	if err := Run(ctx, 0, 3, nil); err != nil {
		t.Fatalf("Run with n=0 = %v, want nil", err)
	}
}

// TestRunAllDoneIgnoresLateCancel: once every job has succeeded, the
// caller's context ending does not turn the result into an error.
func TestRunAllDoneIgnoresLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int32
	err := Run(ctx, 8, 2, func(context.Context, int) error {
		if done.Add(1) == 8 {
			cancel() // the last job ends the caller's context
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
}

func TestIsContextErr(t *testing.T) {
	for err, want := range map[error]bool{
		nil:                      false,
		errors.New("x"):          false,
		context.Canceled:         true,
		context.DeadlineExceeded: true,
		fmt.Errorf("wrapped: %w", context.Canceled): true,
	} {
		if got := IsContextErr(err); got != want {
			t.Errorf("IsContextErr(%v) = %v, want %v", err, got, want)
		}
	}
}
