package cache

// The cache's locks: each shard's mu guards its LRU, and fmu guards the
// flight table. Both are held only for map and list work. Each test here
// fails, within its deadline, on one mistake a change to cache.go can make:
// leaving a lock held on a path that unlocks by hand, or waiting on a
// channel while fmu is held.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"simsearch/internal/core"
)

// finishes runs fn on a goroutine of its own and fails the test when fn has
// not returned within d, so a deadlock reads as a failure naming what
// instead of a hung test binary.
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
		t.Fatalf("%s did not finish within %v: a lock is still held", what, d)
	}
}

// TestEveryPathReleasesItsLock takes each path that unlocks by hand rather
// than by defer — Flush and Stats over every shard, a flight retiring
// itself, a caller giving up on a flight — and then an operation that needs
// the same lock, so a dropped Unlock shows as a deadlock.
func TestEveryPathReleasesItsLock(t *testing.T) {
	g := newGateSearcher()
	c := New(g, Options{shards: 1})
	q := core.Query{Text: "x", K: 1}
	finishes(t, 10*time.Second, "operations after each hand-unlocked path", func() {
		c.Flush()
		c.Flush()
		c.Stats()
		c.Stats()

		// A caller gives up: wait takes fmu to drop its reference.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		fl := c.join(c.key(q), q)
		if _, err := c.wait(ctx, fl); !errors.Is(err, context.Canceled) {
			t.Errorf("abandoned wait: %v", err)
		}
		<-fl.done // the abandoned flight retires itself under fmu

		// A flight that completes: run takes fmu to retire it, then the
		// shard's mu to insert; both are needed again right after.
		close(g.gate)
		if _, err := c.SearchContext(context.Background(), q); err != nil {
			t.Errorf("search: %v", err)
		}
		if _, err := c.SearchContext(context.Background(), core.Query{Text: "y", K: 1}); err != nil {
			t.Errorf("search: %v", err)
		}
		if st := c.Stats(); st.Entries != 2 {
			t.Errorf("entries = %d, want 2", st.Entries)
		}
	})
}

// TestNoChannelWaitUnderFlightLock piles a leader and followers onto one
// gated flight, abandons the leader, then opens the gate: every caller and
// the flight itself must get through fmu. A register, wait or run that
// blocked on a flight's channel while holding fmu would stop the flight
// from retiring, and every other caller with it.
func TestNoChannelWaitUnderFlightLock(t *testing.T) {
	g := newGateSearcher()
	c := New(g, Options{})
	q := core.Query{Text: "x", K: 1}
	finishes(t, 10*time.Second, "callers of one flight", func() {
		leaderCtx, cancelLeader := context.WithCancel(context.Background())
		leaderErr := make(chan error, 1)
		go func() {
			_, err := c.SearchContext(leaderCtx, q)
			leaderErr <- err
		}()
		waitUntil(t, "the leader's flight", func() bool { return c.Stats().Misses == 1 })

		const followers = 4
		var wg sync.WaitGroup
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.SearchContext(context.Background(), q); err != nil {
					t.Errorf("follower: %v", err)
				}
			}()
		}
		waitUntil(t, "followers to join", func() bool { return c.Stats().Coalesced == followers })
		cancelLeader()
		if err := <-leaderErr; !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", err)
		}
		close(g.gate)
		wg.Wait()
		if _, err := c.SearchContext(context.Background(), q); err != nil {
			t.Errorf("search after the flight: %v", err)
		}
	})
}
