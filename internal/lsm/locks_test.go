package lsm

// The store's two locks: mu guards the dictionary, delta and segment list,
// and cmu serializes compactions. Each test here fails, within its deadline,
// on one mistake a change to store.go can make: taking cmu and mu in the
// other order, leaving mu held on an early return, or losing a write that
// was logged or flushed while mu was held.

import (
	"sync"
	"testing"
	"time"

	"simsearch/internal/core"
)

// finishes runs fn on a goroutine of its own and fails the test when fn has
// not returned within d, so a deadlock reads as a failure naming what
// instead of a hung test binary. The stores these tests open are closed
// inside fn, never by a cleanup that a held lock would block.
func finishes(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v: a lock is still held or was taken out of order", what, d)
	}
}

// TestCompactionsOverlapWithoutDeadlock runs manual compactions from two
// goroutines beside the background compactor and a writer that flushes
// every few inserts, so one compaction holds cmu through its merge while
// another arrives at the locks. Compact takes cmu before mu; a Compact that
// took mu first would wait for cmu while holding mu, and the merging one
// would then wait for mu at its swap.
func TestCompactionsOverlapWithoutDeadlock(t *testing.T) {
	universe := take(t, dedupe(cityUniverse(800)), 300)
	st, err := Open(Options{Seed: seedEntries(universe[:150]), FlushLimit: 4, maxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	finishes(t, 30*time.Second, "overlapping compactions", func() {
		defer st.Close()
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					if err := st.Compact(); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range universe[150:] {
				if _, _, err := st.Insert(s); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				if i%3 == 0 {
					if err := st.Flush(); err != nil {
						t.Errorf("Flush: %v", err)
						return
					}
				}
			}
		}()
		wg.Wait()
	})
}

// TestEarlyReturnsReleaseMu takes each of Close's and Compact's early returns
// — Compact over fewer than two segments, a second Close, Compact after
// Close — and then an operation that needs mu. Those three returns unlock by
// hand rather than by defer, so a dropped Unlock shows here as a deadlock.
func TestEarlyReturnsReleaseMu(t *testing.T) {
	st, err := Open(Options{Seed: seedEntries([]string{"alpha"})})
	if err != nil {
		t.Fatal(err)
	}
	finishes(t, 10*time.Second, "operations after an early return", func() {
		if err := st.Compact(); err != nil {
			t.Errorf("Compact over one segment: %v", err)
		}
		if _, _, err := st.Insert("beta"); err != nil {
			t.Errorf("Insert: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
		if err := st.Compact(); err != errClosed {
			t.Errorf("Compact after Close: %v, want errClosed", err)
		}
		if _, _, err := st.Insert("gamma"); err != errClosed {
			t.Errorf("Insert after Close: %v, want errClosed", err)
		}
	})
}

// TestWritesUnderMuReachReadersAndDisk runs the three writes a persistent
// store does while holding mu for writing — the WAL append in Insert and
// Delete, the flush they trigger when the delta reaches FlushLimit, and an
// explicit Flush — beside concurrent searchers, then reopens the directory.
// Every acknowledged write must be there after the reopen, whether a segment
// file or the log holds it.
func TestWritesUnderMuReachReadersAndDisk(t *testing.T) {
	dir := t.TempDir()
	universe := take(t, dedupe(cityUniverse(400)), 120)
	st, err := Open(Options{Dir: dir, FlushLimit: 8, maxSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := core.Query{Text: universe[(i*7+r)%len(universe)], K: 2}
				checkInvariants(t, st, q, st.Search(q))
			}
		}(r)
	}

	flushes := func() uint64 { return st.flushes.Load() }
	before := flushes()
	for _, s := range universe[:100] {
		if _, _, err := st.Insert(s); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		m.insert(s)
	}
	if got := flushes() - before; got != 100/8 {
		t.Errorf("Insert triggered %d flushes, want %d", got, 100/8)
	}
	before = flushes()
	for _, s := range universe[:60] {
		if _, err := st.Delete(s); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		m.delete(s)
	}
	if got := flushes() - before; got != (100%8+60)/8 {
		t.Errorf("Delete triggered %d flushes, want %d", got, (100%8+60)/8)
	}
	for _, s := range universe[100:103] {
		st.Insert(s)
		m.insert(s)
	}
	before = flushes()
	if err := st.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := flushes() - before; got != 1 {
		t.Errorf("Flush of a 3-entry delta made %d segments, want 1", got)
	}
	// These two live only in the log when the store closes.
	for _, s := range universe[103:105] {
		st.Insert(s)
		m.insert(s)
	}
	close(stop)
	wg.Wait()
	checkDict(t, st, m)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, Options{Dir: dir})
	checkDict(t, reopened, m)
	checkAll(t, reopened, m, universe[:20], 2)
}
