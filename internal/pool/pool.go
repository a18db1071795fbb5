// Package pool implements the paper's §3.5–3.6 parallelism substrate with
// the three thread-management strategies the paper evaluates:
//
//  1. PerTask — "open and close as many threads as possible": one thread per
//     query, created and destroyed around the task. This is the paper's §5.3.5
//     approach whose measured cost *exceeds* the sequential solution.
//  2. Fixed — "exactly one thread per CPU core" (generalized to N workers): a
//     fixed pool consuming a shared work queue. The paper's Tables II, IV,
//     VI, VIII sweep N over {4, 8, 16, 32}.
//  3. Adaptive — "intelligent management": a master goroutine (the paper's
//     master/slave solution to the locking problem) opens a worker when
//     average utilization exceeds an upper bound (paper example: 70%) and
//     retires one when it falls below a lower bound (30%).
//
// Serial runs every task on the calling goroutine. Adaptive runs in no
// paper table and no serving path, only in tests and the root's pool
// ablation benchmark (scan.WithAdaptive is its one caller): the thread policy
// that serves is the executors' split-or-inline rule (internal/exec), which
// hands one query's shards to a Fixed pool only when a shard's measured
// share is long enough to pay for the hand-off.
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
	"time"
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

// Adaptive implements strategy 3: a master goroutine samples worker
// utilization and opens or retires workers according to the paper's two
// rules. The master is the only goroutine that changes the worker count,
// which resolves the paper's §3.6 locking problem by construction.
type Adaptive struct {
	// Min and Max bound the worker count. Zero values default to 1 and
	// GOMAXPROCS×4.
	Min, Max int
	// OpenAbove and CloseBelow are the utilization thresholds. Zero values
	// default to the paper's example rules: open above 0.70, close below
	// 0.30.
	OpenAbove, CloseBelow float64
	// Interval is the master's sampling period (default 500µs).
	Interval time.Duration

	peak atomic.Int64 // highest observed worker count (metrics)
}

// Run implements Runner.
func (a *Adaptive) Run(n int, task func(i int)) {
	minW, maxW := a.Min, a.Max
	if minW <= 0 {
		minW = 1
	}
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0) * 4
	}
	if maxW < minW {
		maxW = minW
	}
	open, clos := a.OpenAbove, a.CloseBelow
	if open == 0 {
		open = 0.70
	}
	if clos == 0 {
		clos = 0.30
	}
	interval := a.Interval
	if interval <= 0 {
		interval = 500 * time.Microsecond
	}

	if n == 0 {
		return
	}

	var (
		next     atomic.Int64 // next task index
		finished atomic.Int64 // tasks completed
		busy     atomic.Int64 // workers currently inside task()
		workers  atomic.Int64 // current worker count
		retire   atomic.Int64 // pending retire requests from the master
		wg       sync.WaitGroup
		doneOnce sync.Once
	)
	allDone := make(chan struct{})
	a.peak.Store(0)

	worker := func() {
		defer wg.Done()
		for {
			// Honor a retire request, but never let retirement drop the
			// pool below the minimum: reserve the slot first, undo if it
			// would violate the floor.
			if retire.Load() > 0 {
				if w := workers.Add(-1); w >= int64(minW) {
					if retire.Add(-1) >= 0 {
						return
					}
					// Someone else consumed the request; stay alive.
					retire.Add(1)
				}
				workers.Add(1)
			}
			i := next.Add(1) - 1
			if i >= int64(n) {
				workers.Add(-1)
				return
			}
			busy.Add(1)
			task(int(i))
			busy.Add(-1)
			if finished.Add(1) == int64(n) {
				doneOnce.Do(func() { close(allDone) })
			}
		}
	}
	spawn := func() {
		w := workers.Add(1)
		for {
			p := a.peak.Load()
			if w <= p || a.peak.CompareAndSwap(p, w) {
				break
			}
		}
		wg.Add(1)
		go worker()
	}

	start := minW
	if start > n {
		start = n
	}
	for j := 0; j < start; j++ {
		spawn()
	}

	stop := make(chan struct{})
	var masterDone sync.WaitGroup
	masterDone.Add(1)
	go func() { // the master (paper's master/slave principle)
		defer masterDone.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			w := workers.Load()
			if w == 0 {
				continue
			}
			util := float64(busy.Load()) / float64(w)
			switch {
			case util > open && int(w) < maxW && next.Load() < int64(n):
				spawn()
			case util < clos && int(w) > minW:
				retire.Add(1)
			}
		}
	}()

	<-allDone         // every task has run
	close(stop)       // no further spawns after this is observed
	masterDone.Wait() // master has exited; worker set is now fixed
	wg.Wait()         // drain remaining workers
}

// Peak returns the highest worker count observed during the last Run.
func (a *Adaptive) Peak() int { return int(a.peak.Load()) }

// Name implements Runner.
func (a *Adaptive) Name() string { return "adaptive" }

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
