package exec

import (
	"context"
	"testing"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/pool"
)

// spinSearcher is a shard stub whose queries at threshold slowK burn spin
// of CPU before answering nothing: a shard whose share is far longer than a
// hand-off to another goroutine, at one k only.
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

// TestSingleQueriesStayInline: a single query runs its shards on the
// caller and hands the runner nothing, at every k, however long its shards
// have taken before — on the frozen executor with a 1 ms shard at k = 3,
// and on the live one, which is the same Sharded. A batch of Q queries
// still hands the runner its whole Q×P grid.
func TestSingleQueriesStayInline(t *testing.T) {
	runner := &countingRunner{Fixed: pool.Fixed{Workers: 2}}
	frozen := New(make([]string, 4), Options{
		Shards: 2,
		Runner: runner,
		Factory: func(data []string) core.Searcher {
			return spinSearcher{n: len(data), slowK: 3, spin: time.Millisecond}
		},
	})
	live, err := NewLive(LiveOptions{Shards: 3, Seed: liveSeed(30), Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	for _, ex := range []*Sharded{frozen, live.Sharded} {
		var batch []core.Query
		for round := 0; round < 4; round++ {
			for k := 0; k <= 4; k++ {
				q := core.Query{Text: "live-seed-0001", K: k}
				ex.Search(q)
				if n := runner.tasks.Swap(0); n != 0 {
					t.Fatalf("%s, round %d, k=%d: the runner was handed %d shards, want 0", ex.Name(), round, k, n)
				}
				if _, err := ex.SearchContext(ctx, q); err != nil {
					t.Fatal(err)
				}
				if n := runner.tasks.Swap(0); n != 0 {
					t.Fatalf("%s, round %d, k=%d, with a context: the runner was handed %d shards, want 0", ex.Name(), round, k, n)
				}
				batch = append(batch, q)
			}
		}
		ex.SearchBatch(batch)
		if n, want := runner.tasks.Swap(0), int64(len(batch)*ex.NumShards()); n != want {
			t.Errorf("%s: a batch of %d queries handed the runner %d tasks, want %d", ex.Name(), len(batch), n, want)
		}
	}
}
