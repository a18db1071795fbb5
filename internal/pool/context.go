package pool

import (
	"context"
	"sync/atomic"
)

// RunContext drives r.Run(n, task) under a context. Tasks that have not
// started when ctx is cancelled are skipped, and RunContext returns ctx.Err()
// as soon as the cancellation is observed — it does not wait for tasks that
// are already in flight. Such tasks keep running on the runner's abandoned
// workers until they return; callers that need prompt worker exit too should
// make task itself context-aware (the exec package does this for shards that
// implement core.ContextSearcher).
//
// The returned error is nil iff every task ran. When RunContext returns an
// error, the caller must not read data the surviving tasks may still write.
func RunContext(ctx context.Context, r Runner, n int, task func(i int)) error {
	if ctx == nil || ctx.Done() == nil {
		r.Run(n, task)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var cancelled atomic.Bool
	done := make(chan struct{})
	// On cancel this goroutine outlives RunContext until the runner drains;
	// every task not yet started sees cancelled and returns at once, so the
	// drain is bounded by the tasks in flight (TestRunContextDrainerExits).
	go func() {
		defer close(done)
		r.Run(n, func(i int) {
			if cancelled.Load() {
				return
			}
			task(i)
		})
	}()
	select {
	case <-done:
		if cancelled.Load() {
			return ctx.Err()
		}
		return nil
	case <-ctx.Done():
		cancelled.Store(true)
		return ctx.Err()
	}
}
