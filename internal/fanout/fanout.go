// Package fanout is the repository's one bounded fan-out primitive: it runs
// n independent jobs on at most a fixed number of goroutines, cancels the
// rest once one fails, and reports the failure that caused the cancellation
// rather than the context errors it provoked in the others. Detection fans
// conflict clusters out through it, and Engine.DetectBatch fans out layouts.
package fanout

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Run calls fn(ctx, i) once for every i in [0, n) on max(1, min(workers, n))
// goroutines, starting the jobs in ascending index order, and returns once
// every job has returned. The ctx handed to fn is derived from the caller's
// and is cancelled as soon as any job fails; a job not yet started by then,
// or by the time the caller's context ends, is skipped and records ctx.Err()
// instead of running.
//
// Run returns the lowest-indexed error that is not a context error, else the
// lowest-indexed context error, else nil. Which jobs manage to record an
// error before the cancellation reaches them depends on scheduling; the
// choice among the recorded errors does not. When every job ran and
// succeeded Run returns nil, even if the caller's context ended afterwards.
//
// Run does not recover panics: a job that may panic must recover itself.
func Run(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range max(1, min(workers, n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if err := fn(ctx, i); err != nil {
					errs[i] = err
					cancel() // stop the remaining jobs promptly
				}
			}
		}()
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err != nil && (first == nil || IsContextErr(first) && !IsContextErr(err)) {
			first = err
		}
	}
	return first
}

// IsContextErr reports whether err is, or wraps, a context cancellation or
// deadline error — the retryable failures a caller's own context causes.
func IsContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
