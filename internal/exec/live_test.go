package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/pool"
)

func liveSeed(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("live-seed-%04d", i))
	}
	return out
}

// TestLiveShardCountInvariant: results must not depend on P — a single-store
// executor and a many-store executor answer every query identically after
// the same mutations.
func TestLiveShardCountInvariant(t *testing.T) {
	seed := liveSeed(120)
	mutate := func(x *LiveSharded) {
		for i := 0; i < 40; i++ {
			x.Insert(fmt.Sprintf("live-extra-%03d", i))
		}
		for i := 0; i < 120; i += 5 {
			x.Delete(seed[i])
		}
		x.Insert(seed[10]) // revival
		x.Flush()
		x.Compact()
	}
	open := func(p int) *LiveSharded {
		x, err := NewLive(LiveOptions{Shards: p, Seed: seed, flushLimit: 16})
		if err != nil {
			t.Fatalf("NewLive(%d): %v", p, err)
		}
		t.Cleanup(func() { x.Close() })
		mutate(x)
		return x
	}
	one := open(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for p := 2; p <= 4; p++ {
		many := open(p)
		if one.Len() != many.Len() {
			t.Fatalf("Len: P=1 %d vs P=%d %d", one.Len(), p, many.Len())
		}
		for i := 0; i < 120; i += 7 {
			q := core.Query{Text: seed[i], K: 2}
			a := one.Search(q)
			if b := many.Search(q); !slices.Equal(a, b) {
				t.Fatalf("query %+v: P=1 %v vs P=%d %v", q, a, p, b)
			}
			c, err := many.SearchContext(ctx, q)
			if err != nil {
				t.Fatalf("SearchContext: %v", err)
			}
			if !slices.Equal(a, c) {
				t.Fatalf("query %+v: Search %v vs SearchContext %v", q, a, c)
			}
		}
	}
}

// TestLiveSeedIDLayout: after dedup, seed string i holds id i regardless of
// which shard owns it — the frozen-engine-compatible layout.
func TestLiveSeedIDLayout(t *testing.T) {
	seed := []string{"alpha", "beta", "gamma", "beta", "delta"} // dup beta
	x, err := NewLive(LiveOptions{Shards: 3, Seed: seed})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer x.Close()
	want := []string{"alpha", "beta", "gamma", "delta"}
	if x.Len() != len(want) {
		t.Fatalf("Len: %d, want %d", x.Len(), len(want))
	}
	for i, s := range want {
		got, ok := x.StringAt(int32(i))
		if !ok || got != s {
			t.Fatalf("StringAt(%d) = %q, %v; want %q", i, got, ok, s)
		}
		// Re-inserting must report the existing binding.
		id, added, err := x.Insert(s)
		if err != nil || added || id != int32(i) {
			t.Fatalf("Insert(%q): id=%d added=%v err=%v, want id=%d", s, id, added, err, i)
		}
	}
	if _, ok := x.StringAt(99); ok {
		t.Fatal("StringAt(99) resolved an unknown id")
	}
}

// TestLiveVersionString: the cache version tag advances exactly on effective
// mutations.
func TestLiveVersionString(t *testing.T) {
	x, err := NewLive(LiveOptions{Shards: 2})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer x.Close()
	v0 := x.VersionString()
	x.Insert("alpha")
	v1 := x.VersionString()
	if v1 == v0 {
		t.Fatal("insert did not change the version string")
	}
	x.Insert("alpha")
	if x.VersionString() != v1 {
		t.Fatal("no-op insert changed the version string")
	}
	x.Delete("alpha")
	if x.VersionString() == v1 {
		t.Fatal("delete did not change the version string")
	}
	st := x.LiveStats()
	if st.Inserts != 1 || st.Deletes != 1 {
		t.Fatalf("counters: %+v, want 1 insert and 1 delete", st)
	}
}

// TestLiveMatchesFrozenSharded: a live executor seeded with a dataset and
// never mutated answers byte-identically to the frozen sharded executor, for
// 1..4 shards.
func TestLiveMatchesFrozenSharded(t *testing.T) {
	seed := liveSeed(200)
	for p := 1; p <= 4; p++ {
		live, err := NewLive(LiveOptions{Shards: p, Seed: seed})
		if err != nil {
			t.Fatalf("NewLive: %v", err)
		}
		defer live.Close()
		frozen := New(seed, Options{Shards: p})
		for i := 0; i < 200; i += 11 {
			q := core.Query{Text: seed[i], K: 2}
			if got, want := live.Search(q), frozen.Search(q); !slices.Equal(got, want) {
				t.Fatalf("P=%d, query %+v: live %v vs frozen %v", p, q, got, want)
			}
		}
	}
}

// countingRunner is pool.Fixed that adds up the task counts it is handed.
type countingRunner struct {
	pool.Fixed
	tasks atomic.Int64
}

func (r *countingRunner) Run(n int, task func(i int)) {
	r.tasks.Add(int64(n))
	r.Fixed.Run(n, task)
}

// TestLiveCallerSearchesOneStore: the caller searches every store itself,
// inline, and hands the runner none, deadline or not, and both answer alike
// — from several callers at once, for -race.
func TestLiveCallerSearchesOneStore(t *testing.T) {
	t.Run("inline", testLiveCallerInline)
}

func testLiveCallerInline(t *testing.T) {
	seed := liveSeed(300)
	frozen := New(seed, Options{Shards: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	runner := &countingRunner{Fixed: pool.Fixed{Workers: 2}}
	live, err := NewLive(LiveOptions{Shards: 3, Seed: seed, flushLimit: 16, Runner: runner})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer live.Close()
	for i := 0; i < 40; i++ {
		live.Insert(fmt.Sprintf("delta-%04d", i))
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 300; i += 13 {
				q := core.Query{Text: seed[i], K: 1}
				want := frozen.Search(q) // the inserts are far from every seed
				timed, err := live.SearchContext(ctx, q)
				if got := live.Search(q); err != nil || !slices.Equal(got, want) || !slices.Equal(timed, want) {
					t.Errorf("query %+v: no deadline %v, deadline %v (err %v), want %v", q, got, timed, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := runner.tasks.Load(); n != 0 {
		t.Errorf("the runner was handed %d stores, want 0", n)
	}
}

// TestLiveBatchBesideWriter: batches on the live executor, with and without
// a per-query budget, race a writer that inserts strings one edit from the
// seed, deletes them again and flushes. The seed part of every answer equals
// the frozen executor's over the seed.
func TestLiveBatchBesideWriter(t *testing.T) {
	seed := liveSeed(300)
	live, err := NewLive(LiveOptions{Shards: 3, Seed: seed, flushLimit: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	qs := make([]core.Query, 0, 30)
	for i := 0; i < 300; i += 10 {
		qs = append(qs, core.Query{Text: seed[i], K: i % 3})
	}
	want := New(seed, Options{Shards: 2}).SearchBatch(qs)
	for _, q := range qs {
		live.Insert(q.Text + "v") // a match outside the seed for every k ≥ 1
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				live.Insert(seed[i%len(seed)] + "w")
			} else {
				live.Delete(seed[(i-7+len(seed))%len(seed)] + "w")
			}
			if i%25 == 0 {
				live.Flush()
			}
		}
	}()
	defer func() { // before the deferred Close, on every path
		close(done)
		wg.Wait()
	}()
	extra := 0
	for round := 0; round < 20; round++ {
		ctx := context.Background()
		if round%2 == 1 {
			ctx = core.WithQueryTimeout(ctx, time.Minute)
		}
		res, err := live.SearchBatchContext(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("round %d, query %d: %v", round, i, r.Err)
			}
			n := len(r.Matches)
			got := slices.DeleteFunc(r.Matches, func(m core.Match) bool { return m.ID >= int32(len(seed)) })
			extra += n - len(got)
			if !slices.Equal(got, want[i]) {
				t.Fatalf("round %d, query %+v: seed part %v, frozen %v", round, qs[i], got, want[i])
			}
		}
	}
	if extra == 0 {
		t.Fatal("no answer held a string outside the seed; the test checks nothing")
	}
}
