package exec

import (
	"context"
	"fmt"
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
	one, err := NewLive(LiveOptions{Shards: 1, Seed: seed, FlushLimit: 16})
	if err != nil {
		t.Fatalf("NewLive(1): %v", err)
	}
	defer one.Close()
	four, err := NewLive(LiveOptions{Shards: 4, Seed: seed, FlushLimit: 16})
	if err != nil {
		t.Fatalf("NewLive(4): %v", err)
	}
	defer four.Close()

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
	mutate(one)
	mutate(four)

	if one.Len() != four.Len() {
		t.Fatalf("Len: P=1 %d vs P=4 %d", one.Len(), four.Len())
	}
	for i := 0; i < 120; i += 7 {
		q := core.Query{Text: seed[i], K: 2}
		a := one.Search(q)
		b := four.Search(q)
		if !core.Equal(a, b) {
			t.Fatalf("query %+v: P=1 %v vs P=4 %v", q, a, b)
		}
		c, err := four.SearchContext(context.Background(), q)
		if err != nil {
			t.Fatalf("SearchContext: %v", err)
		}
		if !core.Equal(a, c) {
			t.Fatalf("query %+v: Search %v vs SearchContext %v", q, a, c)
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
// never mutated answers byte-identically to the frozen sharded executor.
func TestLiveMatchesFrozenSharded(t *testing.T) {
	seed := liveSeed(200)
	live, err := NewLive(LiveOptions{Shards: 4, Seed: seed})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer live.Close()
	frozen := New(seed, Options{Shards: 4})
	for i := 0; i < 200; i += 11 {
		q := core.Query{Text: seed[i], K: 2}
		if got, want := live.Search(q), frozen.Search(q); !core.Equal(got, want) {
			t.Fatalf("query %+v: live %v vs frozen %v", q, got, want)
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

// TestLiveCallerSearchesOneStore: a search nothing can cancel hands the
// runner P-1 stores and takes the last itself; one with a deadline hands it
// all P; both answer alike — from several callers at once, for -race.
func TestLiveCallerSearchesOneStore(t *testing.T) {
	seed := liveSeed(300)
	runner := &countingRunner{Fixed: pool.Fixed{Workers: 2}}
	live, err := NewLive(LiveOptions{Shards: 3, Seed: seed, FlushLimit: 16, Runner: runner})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer live.Close()
	for i := 0; i < 40; i++ {
		live.Insert(fmt.Sprintf("delta-%04d", i))
	}
	frozen := New(seed, Options{Shards: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 300; i += 13 {
				q := core.Query{Text: seed[i], K: 1}
				want := frozen.Search(q) // the inserts are far from every seed
				timed, err := live.SearchContext(ctx, q)
				if got := live.Search(q); err != nil || !core.Equal(got, want) || !core.Equal(timed, want) {
					t.Errorf("query %+v: no deadline %v, deadline %v (err %v), want %v", q, got, timed, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	runner.tasks.Store(0)
	live.Search(core.Query{Text: seed[0], K: 1})
	if n := runner.tasks.Swap(0); n != 2 {
		t.Errorf("no deadline: the runner was handed %d of 3 stores, want 2", n)
	}
	if _, err := live.SearchContext(ctx, core.Query{Text: seed[0], K: 1}); err != nil {
		t.Fatal(err)
	}
	if n := runner.tasks.Load(); n != 3 {
		t.Errorf("deadline: the runner was handed %d of 3 stores, want 3", n)
	}
}

func TestMergeByID(t *testing.T) {
	per := [][]core.Match{
		{{ID: 0, Dist: 1}, {ID: 5, Dist: 0}},
		nil,
		{{ID: 2, Dist: 2}},
		{{ID: 1, Dist: 0}, {ID: 3, Dist: 1}, {ID: 9, Dist: 2}},
	}
	got := mergeByID(per)
	want := []core.Match{{ID: 0, Dist: 1}, {ID: 1, Dist: 0}, {ID: 2, Dist: 2}, {ID: 3, Dist: 1}, {ID: 5, Dist: 0}, {ID: 9, Dist: 2}}
	if !core.Equal(got, want) {
		t.Fatalf("mergeByID: got %v, want %v", got, want)
	}
	if mergeByID(nil) != nil {
		t.Fatal("mergeByID(nil) not nil")
	}
}
