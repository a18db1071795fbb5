package lsm

// Concurrency suite, meant for -race: searches, writes, flushes, and
// compactions all running against one store. Searches cannot be checked
// against a frozen oracle here (the dictionary moves underneath them), so
// each result is checked for internal consistency instead: strictly
// ascending unique ids, every id resolvable, every distance exact and within
// budget. A separate test pins down that cancelled searches never block the
// compactor.

import (
	"context"
	"sync"
	"testing"

	"simsearch/internal/core"
	"simsearch/internal/edit"
)

// checkInvariants validates one concurrent search result set.
func checkInvariants(t *testing.T, st *Store, q core.Query, ms []core.Match) {
	t.Helper()
	prev := int32(-1)
	for _, m := range ms {
		if m.ID <= prev {
			t.Errorf("query %+v: ids not strictly ascending: %d after %d", q, m.ID, prev)
			return
		}
		prev = m.ID
		s, ok := st.StringAt(m.ID)
		if !ok {
			t.Errorf("query %+v: unresolvable id %d", q, m.ID)
			return
		}
		if m.Dist > q.K {
			t.Errorf("query %+v: distance %d beyond budget", q, m.Dist)
			return
		}
		if d := edit.Distance(q.Text, s); d != m.Dist {
			t.Errorf("query %+v: id %d distance %d, want %d", q, m.ID, m.Dist, d)
			return
		}
	}
}

func TestConcurrentSearchWriteCompact(t *testing.T) {
	universe := take(t, dedupe(append(cityUniverse(400), dnaUniverse(100, 9)...)), 250)
	st := mustOpen(t, Options{
		Seed:        seedEntries(universe[:100]),
		FlushLimit:  16,
		maxSegments: 2,
	})

	const (
		writers   = 2
		searchers = 3
		iters     = 400
	)
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := universe[(i*7+w*131)%len(universe)]
				if i%3 == 0 {
					if _, err := st.Delete(s); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				} else {
					if _, _, err := st.Insert(s); err != nil {
						t.Errorf("Insert: %v", err)
						return
					}
				}
			}
		}(w)
	}

	for r := 0; r < searchers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := core.Query{Text: universe[(i*13+r*37)%len(universe)], K: 2}
				checkInvariants(t, st, q, st.Search(q))
			}
		}(r)
	}

	// A dedicated caller keeps manual compactions overlapping the
	// background ones the flushes schedule.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			if err := st.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()

	wg.Wait()
}

func TestCancelledSearchNeverBlocksCompactor(t *testing.T) {
	universe := take(t, dedupe(cityUniverse(300)), 150)
	st := mustOpen(t, Options{Seed: seedEntries(universe), FlushLimit: 8, maxSegments: 2})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the searches even start

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ms, err := st.SearchContext(ctx, core.Query{Text: universe[(i+r)%len(universe)], K: 2})
				if err != context.Canceled {
					t.Errorf("cancelled search: err=%v ms=%v", err, ms)
					return
				}
			}
		}(r)
	}
	// Compactions and writes must make progress while the cancelled
	// searchers churn; the test completing at all is the liveness claim,
	// and every Compact call returning is the blocking claim.
	for i := 0; i < 50; i++ {
		st.Insert(universe[i] + "!")
		if i%5 == 0 {
			if err := st.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if err := st.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}
	wg.Wait()
}

func TestConcurrentSearchersDuringCompaction(t *testing.T) {
	universe := take(t, dedupe(cityUniverse(400)), 150)
	st := mustOpen(t, Options{FlushLimit: 1 << 20, maxSegments: 100})
	// Build many segments by hand so every Compact has real work.
	for i, s := range universe {
		st.Insert(s)
		if i%25 == 24 {
			if err := st.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := core.Query{Text: universe[(i*11+r)%len(universe)], K: 2}
				checkInvariants(t, st, q, st.Search(q))
			}
		}(r)
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	close(stop)
	wg.Wait()
	if got := st.Stats().Segments; got != 1 {
		t.Fatalf("segments after compaction: %d, want 1", got)
	}
	// Results after the swap still match a frozen rebuild.
	m := newModel(universe)
	checkAll(t, st, m, universe[:50], 2)
}
