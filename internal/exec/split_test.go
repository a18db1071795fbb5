package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/pool"
)

// branches pins each of a single query's two branches in turn: the tests
// that hold the executors to the determinism guarantee run under both.
var branches = []struct {
	name string
	pin  int
}{{"inline", pinInline}, {"split", pinSplit}}

// spinSearcher is a shard stub whose queries at threshold slowK burn spin
// of CPU before answering nothing: a shard whose share is long enough to be
// worth splitting, at one k only.
type spinSearcher struct {
	n     int
	slowK int
	spin  time.Duration
}

func (s spinSearcher) Search(q core.Query) []core.Match {
	if q.K == s.slowK {
		for start := time.Now(); time.Since(start) < s.spin; {
		}
	}
	return nil
}

func (s spinSearcher) Name() string { return "spin-stub" }
func (s spinSearcher) Len() int     { return s.n }

// TestSplitFollowsCost: the first query at a threshold runs inline and is
// measured; once a slow shard has pushed cost[k] past splitNs, the next
// query at that k fans out and a query at another k still runs inline. The
// live executor reads the same table.
func TestSplitFollowsCost(t *testing.T) {
	runner := &countingRunner{Fixed: pool.Fixed{Workers: 2}}
	ex := New(make([]string, 4), Options{
		Shards: 2,
		Runner: runner,
		Factory: func(data []string) core.Searcher {
			return spinSearcher{n: len(data), slowK: 3, spin: time.Millisecond}
		},
	})
	slow := core.Query{Text: "x", K: 3}
	ex.Search(slow)
	if n := runner.tasks.Swap(0); n != 0 {
		t.Fatalf("first query at k=3: the runner was handed %d shards, want 0 (inline)", n)
	}
	if c := ex.rule.cost[3].Load(); c < splitNs {
		t.Fatalf("cost[3] = %d ns after a 1 ms shard, want ≥ splitNs (%d)", c, splitNs)
	}
	ex.Search(slow)
	if n := runner.tasks.Swap(0); n != 2 {
		t.Errorf("second query at k=3: the runner was handed %d shards, want 2", n)
	}
	ex.Search(core.Query{Text: "x", K: 1})
	if n := runner.tasks.Swap(0); n != 0 {
		t.Errorf("query at k=1: the runner was handed %d shards, want 0", n)
	}

	live, err := NewLive(LiveOptions{Shards: 3, Seed: liveSeed(30), Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	live.rule.cost[2].Store(splitNs)
	live.Search(core.Query{Text: "live-seed-0001", K: 2})
	if n := runner.tasks.Swap(0); n != 3 {
		t.Errorf("live, cost[2] = splitNs: the runner was handed %d of 3 stores, want 3", n)
	}
	live.Search(core.Query{Text: "live-seed-0001", K: 1})
	if n := runner.tasks.Swap(0); n != 0 {
		t.Errorf("live, k=1: the runner was handed %d stores, want 0", n)
	}
}

// BenchmarkSplitOrInline sizes splitNs: one caller searching a 2-store
// live executor, in the cells where a store's share goes from a few µs to
// a few hundred, once under the rule and once pinned to each branch.
// split/query is the share of queries that fanned out.
func BenchmarkSplitOrInline(b *testing.B) {
	corpora := []struct {
		name string
		data func() []string
		ks   []int
	}{
		{"names50k", func() []string { return dataset.Cities(50_000, 7) }, []int{1, 2, 3}},
		{"reads100k", func() []string { return dataset.DNAReads(100_000, 7) }, []int{0, 4, 8}},
		{"reads20k", func() []string { return dataset.DNAReads(20_000, 7) }, []int{8}},
		{"names400k", func() []string { return dataset.Cities(400_000, 7) }, []int{3}},
	}
	modes := []struct {
		name string
		pin  int
	}{{"rule", 0}, {"inline", pinInline}, {"split", pinSplit}}
	for _, c := range corpora {
		// A corpus is built only when -bench selects one of its cells.
		b.Run(c.name, func(b *testing.B) {
			data := c.data()
			texts := dataset.Queries(data, 64, 2, 11)
			runner := &countingRunner{Fixed: pool.Fixed{Workers: 2}}
			live, err := NewLive(LiveOptions{Shards: 2, Seed: data, Runner: runner})
			if err != nil {
				b.Fatal(err)
			}
			defer live.Close()
			for _, k := range c.ks {
				for _, m := range modes {
					b.Run(fmt.Sprintf("k%d/%s", k, m.name), func(b *testing.B) {
						live.rule.pin = m.pin
						for i := range live.rule.cost {
							live.rule.cost[i].Store(0)
						}
						runner.tasks.Store(0)
						runtime.GC() // the corpus build's garbage is not this cell's
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							live.Search(core.Query{Text: texts[i%len(texts)], K: k})
						}
						b.StopTimer()
						// A split search hands the runner both stores.
						b.ReportMetric(float64(runner.tasks.Load())/float64(2*b.N), "split/query")
					})
				}
			}
		})
	}
}
