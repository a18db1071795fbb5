// Package pool implements the paper's §3.5–3.6 parallelism substrate: a
// Runner executes n independent tasks, and the strategies differ only in how
// they schedule them onto OS resources.
//
//   - Serial runs every task on the calling goroutine: ladder steps 1–4 of
//     the sequential engine, as the executors run every single query.
//   - PerTask — "open and close as many threads as possible": one thread per
//     query, created and destroyed around the task. This is the paper's
//     §5.3.5 approach whose measured cost *exceeds* the sequential solution.
//   - Fixed — "exactly one thread per CPU core" (generalized to N workers):
//     a fixed pool consuming a shared work queue. The paper's Tables II, IV,
//     VI, VIII sweep N over {4, 8, 16, 32}, and the executors fan batches
//     out on one.
//
// The paper's third strategy, "intelligent management" by a master thread
// that opens and retires workers by utilization, is §6 future work; the
// executors (internal/exec) run a single query's shards on the caller and
// only a batch's shard×query grid on a Fixed pool.
//
// The paper uses Boost threads; Go's goroutines are far cheaper than OS
// threads, which would hide the strategy-1 regression the paper measured.
// PerTask therefore pins each task to a dedicated OS thread
// (runtime.LockOSThread without unlock, so the thread is destroyed when the
// goroutine exits), faithfully reproducing "create and join one thread per
// query".
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes n independent tasks, invoking task(i) exactly once for
// every i in [0, n). Implementations differ only in how they schedule the
// invocations onto OS resources.
type Runner interface {
	Run(n int, task func(i int))
	Name() string
}

// Serial runs every task on the calling goroutine. It is the no-parallelism
// baseline (ladder steps 1–4 of the sequential engine).
type Serial struct{}

// Run implements Runner.
func (Serial) Run(n int, task func(i int)) {
	for i := 0; i < n; i++ {
		task(i)
	}
}

// Name implements Runner.
func (Serial) Name() string { return "serial" }

// PerTask implements strategy 1: a dedicated, freshly created OS thread per
// task with no admission control.
type PerTask struct{}

// Run implements Runner.
func (PerTask) Run(n int, task func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			// Lock the goroutine to an OS thread and exit without
			// unlocking: the runtime then destroys the thread, charging
			// this task the full thread create/destroy cost, as the
			// paper's per-query Boost threads did.
			runtime.LockOSThread()
			task(i)
		}(i)
	}
	wg.Wait()
}

// Name implements Runner.
func (PerTask) Name() string { return "per-task" }

// Fixed implements strategy 2: Workers goroutines consume tasks from a
// shared counter until all are done.
type Fixed struct {
	Workers int
}

// Run implements Runner.
func (f Fixed) Run(n int, task func(i int)) {
	w := f.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		Serial{}.Run(n, task)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for j := 0; j < w; j++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// Name implements Runner.
func (f Fixed) Name() string {
	return "fixed-" + itoa(f.Workers)
}

// itoa is a minimal positive-int formatter to avoid importing strconv in the
// hot path of Name (called in benchmark loops).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
