package lsm

import (
	"testing"

	"simsearch/internal/core"
)

func mustOpen(t *testing.T, o Options) *Store {
	t.Helper()
	st, err := Open(o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestInsertDeleteSearch(t *testing.T) {
	universe := take(t, dedupe(cityUniverse(200)), 60)
	seed := universe[:20]
	st := mustOpen(t, Options{Seed: seedEntries(seed), FlushLimit: 8, MaxSegments: 100})
	m := newModel(seed)

	checkAll(t, st, m, universe, 2)
	for i, s := range universe[20:50] {
		id, added, err := st.Insert(s)
		if err != nil {
			t.Fatalf("Insert(%q): %v", s, err)
		}
		if !added {
			t.Fatalf("Insert(%q): reported no change for a new string", s)
		}
		if want := int32(20 + i); id != want {
			t.Fatalf("Insert(%q): id %d, want %d", s, id, want)
		}
		m.insert(s)
	}
	checkDict(t, st, m)
	checkAll(t, st, m, universe, 2)

	// Re-inserting a live string is a no-op and keeps the id.
	id0, added, err := st.Insert(universe[0])
	if err != nil || added || id0 != 0 {
		t.Fatalf("re-insert of live string: id=%d added=%v err=%v", id0, added, err)
	}

	for _, s := range universe[10:30] {
		changed, err := st.Delete(s)
		if err != nil {
			t.Fatalf("Delete(%q): %v", s, err)
		}
		if !changed {
			t.Fatalf("Delete(%q): reported no change for a live string", s)
		}
		m.delete(s)
	}
	if changed, _ := st.Delete("never-inserted"); changed {
		t.Fatal("Delete of unknown string reported a change")
	}
	checkDict(t, st, m)
	checkAll(t, st, m, universe, 2)
}

func TestReinsertRevivesID(t *testing.T) {
	st := mustOpen(t, Options{FlushLimit: 2, MaxSegments: 100})
	id1, _, _ := st.Insert("alpha")
	st.Insert("beta")
	st.Insert("gamma") // forces a flush at limit 2
	if changed, _ := st.Delete("alpha"); !changed {
		t.Fatal("delete of alpha reported no change")
	}
	st.Flush()
	id2, added, err := st.Insert("alpha")
	if err != nil || !added {
		t.Fatalf("revive: added=%v err=%v", added, err)
	}
	if id1 != id2 {
		t.Fatalf("revived id %d, want original %d", id2, id1)
	}
}

func TestFlushAndCompactPreserveResults(t *testing.T) {
	universe := dedupe(append(cityUniverse(40), dnaUniverse(20, 12)...))
	st := mustOpen(t, Options{FlushLimit: 1 << 20, MaxSegments: 100})
	m := newModel(nil)
	for i, s := range universe {
		st.Insert(s)
		m.insert(s)
		if i%7 == 3 {
			if err := st.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
		if i%13 == 11 {
			if err := st.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}
	checkDict(t, st, m)
	for k := 0; k <= 2; k++ {
		checkAll(t, st, m, universe, k)
	}
	if err := st.Flush(); err != nil {
		t.Fatalf("final Flush: %v", err)
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("final Compact: %v", err)
	}
	stats := st.Stats()
	if stats.Segments != 1 {
		t.Fatalf("after full compaction: %d segments, want 1", stats.Segments)
	}
	checkDict(t, st, m)
	for k := 0; k <= 2; k++ {
		checkAll(t, st, m, universe, k)
	}
}

func TestTombstonesSurviveCompaction(t *testing.T) {
	st := mustOpen(t, Options{FlushLimit: 1 << 20, MaxSegments: 100})
	st.Insert("alpha")
	st.Insert("beta")
	st.Flush()
	st.Delete("alpha")
	st.Flush()
	st.Compact()
	stats := st.Stats()
	if stats.Tombstones != 1 || stats.Live != 1 {
		t.Fatalf("after compaction: %+v, want 1 tombstone and 1 live", stats)
	}
	// The binding survives: reviving yields the original id.
	id, _, _ := st.Insert("alpha")
	if id != 0 {
		t.Fatalf("revived alpha id %d, want 0", id)
	}
}

func TestLengthWindow(t *testing.T) {
	st := mustOpen(t, Options{FlushLimit: 1 << 20})
	for _, s := range []string{"a", "ab", "abc", "abcd", "abcdefgh"} {
		st.Insert(s)
	}
	got := st.Search(core.Query{Text: "abc", K: 1})
	want := []core.Match{{ID: 1, Dist: 1}, {ID: 2, Dist: 0}, {ID: 3, Dist: 1}}
	if !core.Equal(got, want) {
		t.Fatalf("length-window query: got %v, want %v", got, want)
	}
}

func TestNegativeKAndEmptyStore(t *testing.T) {
	st := mustOpen(t, Options{})
	if ms := st.Search(core.Query{Text: "x", K: -1}); ms != nil {
		t.Fatalf("negative k: got %v, want nil", ms)
	}
	if ms := st.Search(core.Query{Text: "x", K: 3}); ms != nil {
		t.Fatalf("empty store: got %v, want nil", ms)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	st, err := Open(Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st.Insert("alpha")
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := st.Insert("beta"); err != ErrClosed {
		t.Fatalf("Insert after Close: %v, want ErrClosed", err)
	}
	if _, err := st.Delete("alpha"); err != ErrClosed {
		t.Fatalf("Delete after Close: %v, want ErrClosed", err)
	}
	if err := st.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	if err := st.Compact(); err != ErrClosed {
		t.Fatalf("Compact after Close: %v, want ErrClosed", err)
	}
}

func TestVersionAdvancesOnlyOnChange(t *testing.T) {
	st := mustOpen(t, Options{})
	v0 := st.Version()
	st.Insert("alpha")
	v1 := st.Version()
	if v1 == v0 {
		t.Fatal("insert did not advance the version")
	}
	st.Insert("alpha") // no-op
	if st.Version() != v1 {
		t.Fatal("no-op insert advanced the version")
	}
	st.Delete("missing") // no-op
	if st.Version() != v1 {
		t.Fatal("no-op delete advanced the version")
	}
	st.Delete("alpha")
	if st.Version() == v1 {
		t.Fatal("delete did not advance the version")
	}
}

func TestStringAt(t *testing.T) {
	st := mustOpen(t, Options{})
	id, _, _ := st.Insert("alpha")
	if s, ok := st.StringAt(id); !ok || s != "alpha" {
		t.Fatalf("StringAt(%d) = %q, %v", id, s, ok)
	}
	st.Delete("alpha")
	// Bindings are permanent: ids in already-captured results still resolve.
	if s, ok := st.StringAt(id); !ok || s != "alpha" {
		t.Fatalf("StringAt after delete = %q, %v", s, ok)
	}
	if _, ok := st.StringAt(9999); ok {
		t.Fatal("StringAt of unknown id reported ok")
	}
}

func TestSeedMatchesFrozenByteForByte(t *testing.T) {
	seed := dedupe(cityUniverse(50))
	st := mustOpen(t, Options{Seed: seedEntries(seed)})
	frozen := core.Reference(seed)
	for _, s := range seed {
		q := core.Query{Text: mutate(s, 1), K: 2}
		if got, want := st.Search(q), frozen.Search(q); !core.Equal(got, want) {
			t.Fatalf("seeded store diverges from frozen engine on %+v: got %v, want %v", q, got, want)
		}
	}
}
