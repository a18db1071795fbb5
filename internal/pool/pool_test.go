package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkRunsAll verifies that a Runner invokes task(i) exactly once for every
// index and actually waits for completion before returning.
func checkRunsAll(t *testing.T, r Runner, n int) {
	t.Helper()
	counts := make([]int64, n)
	r.Run(n, func(i int) {
		atomic.AddInt64(&counts[i], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Errorf("%s: task %d ran %d times, want 1", r.Name(), i, c)
		}
	}
}

func TestSerialRunsAll(t *testing.T) {
	checkRunsAll(t, Serial{}, 100)
	checkRunsAll(t, Serial{}, 0)
	checkRunsAll(t, Serial{}, 1)
}

func TestSerialOrdered(t *testing.T) {
	var seen []int
	Serial{}.Run(5, func(i int) { seen = append(seen, i) })
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial order broken: %v", seen)
		}
	}
}

func TestPerTaskRunsAll(t *testing.T) {
	checkRunsAll(t, PerTask{}, 64)
	checkRunsAll(t, PerTask{}, 0)
}

// updatePeak lifts *peak to c if c is a new high-water mark.
func updatePeak(peak *int64, c int64) {
	for {
		p := atomic.LoadInt64(peak)
		if c <= p || atomic.CompareAndSwapInt64(peak, p, c) {
			return
		}
	}
}

// runOrFail runs fn on a helper goroutine and fails the test if it does not
// finish in time, turning a scheduler deadlock into a diagnosable failure
// instead of a hung test binary. The deadline is a watchdog, not a timing
// assumption: on a healthy runner fn completes in microseconds.
func runOrFail(t *testing.T, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: runner deadlocked", name)
	}
}

func TestPerTaskIsConcurrent(t *testing.T) {
	// Every task blocks until two tasks are provably in flight at once, so
	// the observed peak is ≥ 2 by synchronization, not by sleeping and
	// hoping the scheduler overlaps them.
	var cur, peak int64
	overlap := make(chan struct{})
	var once sync.Once
	runOrFail(t, "per-task", func() {
		PerTask{}.Run(16, func(i int) {
			c := atomic.AddInt64(&cur, 1)
			updatePeak(&peak, c)
			if c >= 2 {
				once.Do(func() { close(overlap) })
			}
			<-overlap
			atomic.AddInt64(&cur, -1)
		})
	})
	if peak < 2 {
		t.Errorf("peak concurrency = %d, want >= 2", peak)
	}
}

func TestFixedRunsAll(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8, 32} {
		checkRunsAll(t, Fixed{Workers: w}, 200)
	}
	checkRunsAll(t, Fixed{Workers: 4}, 0)
	checkRunsAll(t, Fixed{Workers: 0}, 50) // defaults to GOMAXPROCS
	checkRunsAll(t, Fixed{Workers: 100}, 3)
}

func TestFixedBoundsConcurrency(t *testing.T) {
	// The first three tasks rendezvous before any proceeds: the pool must
	// reach exactly its worker count and never exceed it. No timers.
	var cur, peak int64
	full := make(chan struct{})
	var once sync.Once
	runOrFail(t, "fixed-3", func() {
		Fixed{Workers: 3}.Run(60, func(i int) {
			c := atomic.AddInt64(&cur, 1)
			updatePeak(&peak, c)
			if c >= 3 {
				once.Do(func() { close(full) })
			}
			<-full
			atomic.AddInt64(&cur, -1)
		})
	})
	if peak != 3 {
		t.Errorf("peak concurrency = %d, want exactly 3", peak)
	}
}

func TestFixedName(t *testing.T) {
	if got := (Fixed{Workers: 8}).Name(); got != "fixed-8" {
		t.Errorf("Name = %q", got)
	}
	if got := (Fixed{Workers: 32}).Name(); got != "fixed-32" {
		t.Errorf("Name = %q", got)
	}
}

func TestRunnersWithPanicSafety(t *testing.T) {
	// A panicking task must not deadlock the Fixed pool's sibling workers;
	// we only check that non-panicking indices all run when no panic occurs.
	// (Panic propagation is intentionally undefined, as with raw goroutines.)
	checkRunsAll(t, Fixed{Workers: 4}, 37)
}

func TestRunnerNames(t *testing.T) {
	if (Serial{}).Name() != "serial" || (PerTask{}).Name() != "per-task" {
		t.Error("runner names wrong")
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 42: "42", 1000: "1000", -3: "-3"}
	for v, want := range cases {
		if got := itoa(v); got != want {
			t.Errorf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}
