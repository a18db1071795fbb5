package exec

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/metrics"
	"simsearch/internal/pool"
)

// TestRegisterMetrics: after serving a query, the scrape output carries
// per-shard counters and task-latency histograms with shard labels.
func TestRegisterMetrics(t *testing.T) {
	data := dataset.Cities(100, 3)
	ex := New(data, Options{Shards: 2})
	reg := metrics.NewRegistry()
	ex.RegisterMetrics(reg)

	ex.Search(core.Query{Text: data[0], K: 1})

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`simsearch_shard_queries_total{shard="0"} 1`,
		`simsearch_shard_queries_total{shard="1"} 1`,
		`simsearch_shard_busy_seconds_total{shard="0"}`,
		`simsearch_shard_task_seconds_bucket{shard="0",le="+Inf"} 1`,
		`simsearch_shard_task_seconds_count{shard="1"} 1`,
		`simsearch_shard_strings{shard="0"} 50`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
}

// TestShardSlowLog: a shard task over the threshold produces one line per
// shard with the shard index and engine name.
func TestShardSlowLog(t *testing.T) {
	data := dataset.Cities(60, 4)
	ex := New(data, Options{Shards: 2})
	var sb syncBuffer
	ex.SetSlowLog(metrics.NewSlowLog(&sb, time.Nanosecond)) // everything is slow
	ex.Search(core.Query{Text: "berlin", K: 1})
	out := sb.String()
	if !strings.Contains(out, "shard=0") || !strings.Contains(out, "shard=1") {
		t.Fatalf("slow log missing shard lines:\n%s", out)
	}
	if !strings.Contains(out, "engine=scan/simple-types") {
		t.Errorf("slow log missing engine field:\n%s", out)
	}
}

// syncBuffer is a goroutine-safe string buffer (shard tasks log from pool
// workers).
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// ctxRecorder is a shard stub that records the context every query ran
// under and blocks the query named "slow" until release is closed.
type ctxRecorder struct {
	mu          sync.Mutex
	ctxs        map[string]context.Context
	slowStarted chan struct{}
	release     chan struct{}
}

func (r *ctxRecorder) Search(core.Query) []core.Match { return nil }

func (r *ctxRecorder) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	r.mu.Lock()
	r.ctxs[q.Text] = ctx
	r.mu.Unlock()
	if q.Text == "slow" {
		r.slowStarted <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-r.release:
		}
	}
	return nil, nil
}

func (r *ctxRecorder) Name() string { return "ctx-recorder" }
func (r *ctxRecorder) Len() int     { return 1 }

func (r *ctxRecorder) ctx(text string) context.Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctxs[text]
}

// TestBatchReleasesQueryTimersEarly is the regression test for the deferred-
// cancel bug: with a per-query timeout, a finished query's context (and its
// deadline timer) must be cancelled as soon as its last shard task resolves,
// not when the whole batch returns.
func TestBatchReleasesQueryTimersEarly(t *testing.T) {
	rec := &ctxRecorder{
		ctxs:        make(map[string]context.Context),
		slowStarted: make(chan struct{}, 1),
		release:     make(chan struct{}),
	}
	ex := New(make([]string, 1), Options{
		Shards:  1,
		Runner:  pool.Fixed{Workers: 2},
		Factory: func([]string) core.Searcher { return rec },
	})

	done := make(chan []QueryResult, 1)
	go func() {
		// A budget far beyond the test: only cancel can fire it.
		ctx := core.WithQueryTimeout(context.Background(), time.Minute)
		res, err := ex.SearchBatchContext(ctx,
			[]core.Query{{Text: "fast"}, {Text: "slow"}})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()

	// The slow query is in flight, so the batch cannot have returned.
	select {
	case <-rec.slowStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("slow query never started")
	}

	// The fast query finished; its context must be cancelled promptly even
	// though the batch is still running. Poll against a deadline (the cancel
	// happens on a pool worker after the task callback returns).
	deadline := time.Now().Add(5 * time.Second)
	for {
		c := rec.ctx("fast")
		if c != nil {
			select {
			case <-c.Done():
				if c.Err() != context.Canceled {
					t.Fatalf("fast ctx err = %v, want Canceled (not a fired timer)", c.Err())
				}
				goto released
			default:
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("fast query's context was not cancelled before batch end")
		}
		//lint:ignore nosleeptest deadline-bounded poll for a cancel that fires on a pool worker after the callback returns; no channel to wait on
		time.Sleep(time.Millisecond)
	}
released:
	close(rec.release)
	select {
	case res := <-done:
		for i, r := range res {
			if r.Err != nil {
				t.Errorf("query %d err = %v", i, r.Err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch never returned")
	}
}
