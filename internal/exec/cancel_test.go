package exec

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/pool"
)

// slowSearcher is a context-aware shard stub that blocks inside every query
// until its context is cancelled or the test releases it. It stands in for a
// shard stuck on a pathologically expensive query.
type slowSearcher struct {
	n       int
	started chan struct{} // one send per query that has begun executing
	release chan struct{} // closed by the test to unblock Search
}

func (s *slowSearcher) Search(core.Query) []core.Match {
	s.started <- struct{}{}
	<-s.release
	return nil
}

func (s *slowSearcher) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	s.started <- struct{}{}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.release:
		return nil, nil
	}
}

func (s *slowSearcher) Name() string { return "slow-stub" }
func (s *slowSearcher) Len() int     { return s.n }

// newSlowExecutor builds a 4-shard executor whose every shard is slow.
func newSlowExecutor(started, release chan struct{}) *Sharded {
	return New(make([]string, 8), Options{
		Shards: 4,
		Runner: pool.Fixed{Workers: 4},
		Factory: func(data []string) core.Searcher {
			return &slowSearcher{n: len(data), started: started, release: release}
		},
	})
}

// TestSearchContextCancelsPromptly: with every shard blocked, cancelling the
// context must return ctx.Err() without waiting for the shards, and all
// goroutines the call spawned must drain. Shard 0 is in flight when the
// cancel lands, and the rest never start.
func TestSearchContextCancelsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()

	started := make(chan struct{}, 16)
	release := make(chan struct{})
	ex := newSlowExecutor(started, release)

	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		ms  []core.Match
		err error
	}
	done := make(chan result, 1)
	go func() {
		ms, err := ex.SearchContext(ctx, core.Query{Text: "x", K: 1})
		done <- result{ms, err}
	}()

	// Shard 0 is in flight, so the call is genuinely blocked before we
	// cancel.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("shard 0 never started")
	}
	cancel()

	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", r.err)
		}
		if r.ms != nil {
			t.Fatalf("matches = %v, want nil on cancellation", r.ms)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SearchContext did not return after cancel")
	}
	if n := len(started); n != 0 {
		t.Errorf("%d more shards started after the cancel", n)
	}
	close(release)
	waitForGoroutines(t, before)
}

// plainSlowSearcher is slowSearcher without SearchContext: an engine that
// cannot stop mid-query.
type plainSlowSearcher struct{ s *slowSearcher }

func (p plainSlowSearcher) Search(q core.Query) []core.Match { return p.s.Search(q) }
func (p plainSlowSearcher) Name() string                     { return p.s.Name() }
func (p plainSlowSearcher) Len() int                         { return p.s.Len() }

// TestInlinePlainEngineStopsBetweenShards: among several shards, a plain
// engine runs on the caller, with no helper goroutine, so a cancel that
// lands during shard 0 is returned once shard 0 finishes, and no later shard
// starts.
func TestInlinePlainEngineStopsBetweenShards(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	ex := New(make([]string, 8), Options{
		Shards: 4,
		Factory: func(data []string) core.Searcher {
			return plainSlowSearcher{&slowSearcher{n: len(data), started: started, release: release}}
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := ex.SearchContext(ctx, core.Query{Text: "x", K: 1})
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("shard 0 never started")
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("%d goroutines while shard 0 runs, want at most %d: the caller handed it off", n, before+1)
	}
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SearchContext did not return after shard 0 finished")
	}
	if n := len(started); n != 0 {
		t.Errorf("%d more shards started after the cancel", n)
	}
}

// TestSearchBatchContextCancelMidBatch: cancelling while a batch is running
// abandons the batch with ctx.Err() and skips the unstarted task tail.
func TestSearchBatchContextCancelMidBatch(t *testing.T) {
	before := runtime.NumGoroutine()

	started := make(chan struct{}, 64)
	release := make(chan struct{})
	defer close(release)
	ex := newSlowExecutor(started, release)

	ctx, cancel := context.WithCancel(context.Background())
	qs := make([]core.Query, 8) // 8×4 = 32 tasks over 4 workers
	done := make(chan error, 1)
	go func() {
		_, err := ex.SearchBatchContext(ctx, qs)
		done <- err
	}()
	for i := 0; i < 4; i++ { // the 4 workers are all blocked in shards
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("batch tasks never started")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SearchBatchContext did not return after cancel")
	}

	waitForGoroutines(t, before)
}

// TestPerQueryDeadline: with a per-query budget on the context and shards that block
// until their context expires, every query reports DeadlineExceeded while the
// batch call itself succeeds.
func TestPerQueryDeadline(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	defer close(release)
	ex := New(make([]string, 8), Options{
		Shards: 2,
		Runner: pool.Fixed{Workers: 4},
		Factory: func(data []string) core.Searcher {
			return &slowSearcher{n: len(data), started: started, release: release}
		},
	})
	ctx := core.WithQueryTimeout(context.Background(), 20*time.Millisecond)
	res, err := ex.SearchBatchContext(ctx, make([]core.Query, 3))
	if err != nil {
		t.Fatalf("batch err = %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d, want 3", len(res))
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("query %d: err = %v, want DeadlineExceeded", i, r.Err)
		}
		if r.Matches != nil {
			t.Errorf("query %d: matches = %v, want nil", i, r.Matches)
		}
	}
}

// TestSearchBatchContextCompletes: the happy path returns complete, correct
// per-query results with nil errors, identical to one Search per query, on
// the frozen executor and on the live one seeded with the same data.
func TestSearchBatchContextCompletes(t *testing.T) {
	data := dataset.Cities(300, 6)
	live, err := NewLive(LiveOptions{Shards: 3, Seed: data})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	qs := queriesFor(data, 10, []int{1, 2}, 23)
	for _, ex := range []*Sharded{New(data, Options{Shards: 3}), live.Sharded} {
		res, err := ex.SearchBatchContext(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s, query %d: unexpected err %v", ex.Name(), i, r.Err)
			}
			if want := ex.Search(qs[i]); !slices.Equal(r.Matches, want) {
				t.Fatalf("%s, query %d: batch %v, Search %v", ex.Name(), i, r.Matches, want)
			}
		}
		// An already-cancelled context fails the whole batch up front.
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := ex.SearchBatchContext(cancelled, qs); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled batch err = %v", ex.Name(), err)
		}
		if _, err := ex.SearchContext(cancelled, qs[0]); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled search err = %v", ex.Name(), err)
		}
	}
}

// TestSearchContextPlainEnginesComplete: context execution over ordinary
// (non-stub) engines returns exactly what Search returns when not cancelled.
func TestSearchContextPlainEnginesComplete(t *testing.T) {
	data := dataset.Cities(400, 10)
	ex := New(data, Options{Shards: 4, Factory: trieFactory})
	for _, q := range queriesFor(data, 8, []int{0, 1, 2}, 29) {
		want := ex.Search(q)
		got, err := ex.SearchContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("SearchContext(%+v) diverges from Search", q)
		}
	}
}

// waitForGoroutines polls until the goroutine count returns to the baseline
// (with a small slack for runtime housekeeping), failing after a deadline.
// Polling against a deadline is deliberate: a fixed sleep would be flaky.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines through exit
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		//lint:ignore nosleeptest deadline-bounded poll of runtime.NumGoroutine, which has no channel to wait on; not a fixed-delay sync
		time.Sleep(time.Millisecond)
	}
}
