package lsm

// Metamorphic property: insert-then-delete-then-reinsert of a string, under
// every placement of flush/compact boundaries around those three ops, must
// leave the store answering exactly like a twin that never touched the
// string — same ids, same distances, same top-k, byte for byte.

import (
	"slices"
	"testing"

	"simsearch/internal/core"
)

func TestInsertDeleteReinsertIsIdentity(t *testing.T) {
	universe := take(t, dedupe(append(cityUniverse(150), dnaUniverse(40, 10)...)), 120)
	seed := universe[:80]

	// The disturbance targets both a seeded string (revival must keep its
	// original low id) and a brand-new one (its fresh id must not leak
	// into results once deleted... and must come back identically when
	// reinserted, since the binding is permanent).
	targets := []string{seed[17], universe[90]}

	queries := []core.Query{
		{Text: seed[17], K: 2},
		{Text: universe[90], K: 2},
		{Text: mutate(seed[17], 2), K: 3},
		{Text: seed[3], K: 1},
		{Text: "", K: 1},
	}

	// barrier op codes: what happens between the three mutation steps.
	type barrier int
	const (
		nothing barrier = iota
		flush
		compact
		flushCompact
	)
	apply := func(t *testing.T, st *Store, b barrier) {
		t.Helper()
		switch b {
		case flush:
			if err := st.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		case compact:
			if err := st.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		case flushCompact:
			if err := st.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if err := st.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}

	// The untouched twin: seeded, never disturbed.
	calm := mustOpen(t, Options{Seed: seedEntries(seed), FlushLimit: 1 << 20, maxSegments: 100})
	calmTop := make([][]core.Match, len(queries))
	for qi, q := range queries {
		calmTop[qi] = core.TopK(calm, q.Text, 3, q.K)
	}

	for _, target := range targets {
		for b1 := nothing; b1 <= flushCompact; b1++ {
			for b2 := nothing; b2 <= flushCompact; b2++ {
				for b3 := nothing; b3 <= flushCompact; b3++ {
					st := mustOpen(t, Options{Seed: seedEntries(seed), FlushLimit: 1 << 20, maxSegments: 100})
					if _, _, err := st.Insert(target); err != nil {
						t.Fatalf("insert: %v", err)
					}
					apply(t, st, b1)
					if _, err := st.Delete(target); err != nil {
						t.Fatalf("delete: %v", err)
					}
					apply(t, st, b2)
					wasSeeded := target == seed[17]
					if wasSeeded {
						// Reinserting restores the seeded state.
						if _, _, err := st.Insert(target); err != nil {
							t.Fatalf("reinsert: %v", err)
						}
					}
					apply(t, st, b3)

					if wasSeeded {
						// Store must now be indistinguishable from calm.
						for qi, q := range queries {
							got, want := st.Search(q), calm.Search(q)
							if !slices.Equal(got, want) {
								t.Fatalf("target %q barriers (%d,%d,%d) query %+v: got %v, want %v",
									target, b1, b2, b3, q, got, want)
							}
							gotTop := core.TopK(st, q.Text, 3, q.K)
							if !slices.Equal(gotTop, calmTop[qi]) {
								t.Fatalf("target %q barriers (%d,%d,%d) top-k %+v: got %v, want %v",
									target, b1, b2, b3, q, gotTop, calmTop[qi])
							}
						}
					} else {
						// A foreign string inserted then deleted: results
						// must match calm too (the tombstone hides it).
						for _, q := range queries {
							got, want := st.Search(q), calm.Search(q)
							if !slices.Equal(got, want) {
								t.Fatalf("target %q barriers (%d,%d,%d) query %+v: got %v, want %v",
									target, b1, b2, b3, q, got, want)
							}
						}
					}
					st.Close()
				}
			}
		}
	}
}
