package pool

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunContextRunsAllWithoutCancel(t *testing.T) {
	for _, ctx := range []context.Context{nil, context.Background()} {
		var ran int64
		err := RunContext(ctx, Fixed{Workers: 4}, 100, func(i int) {
			atomic.AddInt64(&ran, 1)
		})
		if err != nil || ran != 100 {
			t.Errorf("ctx=%v: err=%v ran=%d", ctx, err, ran)
		}
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := RunContext(ctx, Serial{}, 5, func(i int) { ran = true })
	if !errors.Is(err, context.Canceled) || ran {
		t.Errorf("err=%v ran=%v", err, ran)
	}
}

// TestRunContextSkipsAfterCancel: cancelling mid-run returns promptly and
// the unstarted task tail is skipped. Tasks block on a channel (not a timer)
// so the test is deterministic under any scheduler.
func TestRunContextSkipsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan int, 8)
	release := make(chan struct{})
	var ran int64
	done := make(chan error, 1)
	go func() {
		done <- RunContext(ctx, Fixed{Workers: 2}, 50, func(i int) {
			atomic.AddInt64(&ran, 1)
			started <- i
			<-release
		})
	}()
	// Both workers are now inside a task.
	<-started
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return after cancel")
	}
	close(release) // drain the two in-flight tasks
	// Only the tasks already in flight at cancel time may have run; the
	// skipped tail never increments ran, racing or not.
	if n := atomic.LoadInt64(&ran); n > 2 {
		t.Errorf("ran = %d tasks after prompt cancel, want <= 2", n)
	}
}

// TestRunContextDrainerExits runs the goroutine RunContext leaves behind on
// cancel: while tasks are in flight it outlives the call, and once they
// finish it and the runner's workers exit, leaving no goroutine of
// RunContext's behind.
func TestRunContextDrainerExits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- RunContext(ctx, Fixed{Workers: 2}, 50, func(int) {
			started <- struct{}{}
			<-release
		})
	}()
	<-started
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := goroutinesIn("pool.RunContext.func"); n == 0 {
		t.Fatal("no goroutine of RunContext's with two tasks in flight")
	}
	close(release)
	// No channel reports a goroutine's exit, so poll against a deadline,
	// yielding between looks.
	for deadline := time.Now().Add(5 * time.Second); goroutinesIn("pool.RunContext.func") > 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines of RunContext's after the in-flight tasks finished, want 0", goroutinesIn("pool.RunContext.func"))
		}
	}
}

// goroutinesIn counts the goroutines with a frame whose function name
// contains fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, fn) {
			n++
		}
	}
	return n
}
