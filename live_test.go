package simsearch

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
)

// TestLiveFacadeMatchesFrozen: after a mutation sequence, the live engine
// answers every query with the same (string, distance) multiset as a frozen
// engine built over the surviving strings — through the public facade, with
// the cache in front, with the writes still in the delta and again after
// flush and compaction, on city names (occurrence-bit words) and on reads
// (count words) at thresholds from exact match up. Ids differ by design
// (the live dictionary keeps its permanent bindings), so the comparison
// resolves matches to strings.
func TestLiveFacadeMatchesFrozen(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func(n int, seed int64) []string
		ks   []int
	}{
		{"cities", GenerateCities, []int{0, 1, 2}},
		{"reads", GenerateDNAReads, []int{0, 2, 4}},
	} {
		t.Run(c.name, func(t *testing.T) { liveMatchesFrozen(t, c.gen(300, 1), c.gen(40, 2), c.ks) })
	}
}

func liveMatchesFrozen(t *testing.T, seed, extra []string, ks []int) {
	lv := NewLive(seed, 4, Options{CacheSize: 64})
	defer lv.Close()

	// Track the surviving set in a pure-Go twin (first occurrence wins,
	// matching the facade's dedup).
	alive := make(map[string]bool)
	var order []string
	add := func(s string) {
		if _, seen := alive[s]; !seen {
			order = append(order, s)
			alive[s] = true
		}
	}
	for _, s := range seed {
		add(s)
	}
	for _, s := range extra {
		if _, _, err := lv.Insert(s); err != nil {
			t.Fatalf("Insert(%q): %v", s, err)
		}
		add(s)
	}
	for i := 0; i < len(seed); i += 7 {
		if _, err := lv.Delete(seed[i]); err != nil {
			t.Fatalf("Delete(%q): %v", seed[i], err)
		}
		alive[seed[i]] = false
	}

	var survivors []string
	for _, s := range order {
		if alive[s] {
			survivors = append(survivors, s)
		}
	}
	if lv.Len() != len(survivors) {
		t.Fatalf("Len: live %d vs model %d", lv.Len(), len(survivors))
	}
	frozen := New(survivors, Options{})

	check := func(stage string, query Query) {
		q := query.Text
		got := lv.Search(query)
		want := frozen.Search(query)
		if len(got) != len(want) {
			t.Fatalf("%s, query %q k=%d: live %d matches, frozen %d", stage, q, query.K, len(got), len(want))
		}
		// Both sides sort by id; live ids interleave shards, so compare the
		// (string, dist) pairs as sets.
		type pair struct {
			s string
			d int
		}
		gotSet := make(map[pair]int)
		for _, m := range got {
			s, ok := lv.StringAt(m.ID)
			if !ok {
				t.Fatalf("%s, query %q: unresolvable id %d", stage, q, m.ID)
			}
			gotSet[pair{s, m.Dist}]++
		}
		for _, m := range want {
			p := pair{survivors[m.ID], m.Dist}
			if gotSet[p] == 0 {
				t.Fatalf("%s, query %q: frozen match %+v missing from live answer", stage, q, p)
			}
			gotSet[p]--
		}
		// Second call exercises the cache hit path; must be identical.
		again := lv.Search(query)
		if len(again) != len(got) {
			t.Fatalf("%s, query %q: cached answer diverged", stage, q)
		}
	}
	queries := append(append(seed[:30:30], extra[:10:10]...), GenerateQueries(survivors, 20, 2, 3)...)
	batch := make([]Query, len(queries))
	for i, q := range queries {
		batch[i] = Query{Text: q, K: ks[i%len(ks)]}
	}
	for _, stage := range []string{"delta in front", "compacted"} {
		// The batch runs first, on the stores' task grid, and fills the
		// cache; the single queries then replay its answers from the cache
		// and hold them to the frozen engine.
		res, err := SearchBatchContext(context.Background(), lv, batch)
		if err != nil {
			t.Fatalf("%s: batch: %v", stage, err)
		}
		for i, r := range res {
			if want := lv.Search(batch[i]); r.Err != nil || !slices.Equal(r.Matches, want) {
				t.Fatalf("%s, query %+v: batch %v (err %v), Search %v", stage, batch[i], r.Matches, r.Err, want)
			}
		}
		for _, q := range batch {
			check(stage, q)
		}
		if err := lv.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if err := lv.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	}
}

// TestLiveFacadeCacheInvalidation: every effective mutation advances the
// generation the facade's cache keys on — a pre-mutation cached answer is
// never replayed.
func TestLiveFacadeCacheInvalidation(t *testing.T) {
	lv := NewLive([]string{"alpha", "altar"}, 2, Options{CacheSize: 16})
	defer lv.Close()

	q := Query{Text: "alpha", K: 1}
	if got := lv.Search(q); len(got) != 1 {
		t.Fatalf("seed search: %v", got)
	}
	lv.Search(q) // warm the cache entry

	if _, added, err := lv.Insert("aloha"); err != nil || !added {
		t.Fatalf("Insert: added=%v err=%v", added, err)
	}
	if got := lv.Search(q); len(got) != 2 {
		t.Fatalf("stale cached result after insert: %v", got)
	}
	if changed, err := lv.Delete("alpha"); err != nil || !changed {
		t.Fatalf("Delete: changed=%v err=%v", changed, err)
	}
	got := lv.Search(q)
	if len(got) != 1 {
		t.Fatalf("stale cached result after delete: %v", got)
	}
	if s, _ := lv.StringAt(got[0].ID); s != "aloha" {
		t.Fatalf("after delete: matched %q, want aloha", s)
	}
}

// TestOpenLivePersistsAcrossReopen: acknowledged writes survive a close and
// reopen through the public facade.
func TestOpenLivePersistsAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "live")
	seed := []string{"berlin", "bergen", "boston"}

	lv, err := OpenLive(dir, seed, 2, Options{})
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	if _, _, err := lv.Insert("bremen"); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := lv.Delete("boston"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := lv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenLive(dir, seed, 2, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reopened Len: %d, want 3", re.Len())
	}
	if got := re.Search(Query{Text: "bremen", K: 0}); len(got) != 1 {
		t.Fatalf("bremen not recovered: %v", got)
	}
	if got := re.Search(Query{Text: "boston", K: 0}); len(got) != 0 {
		t.Fatalf("boston's tombstone not recovered: %v", got)
	}
	st := re.Stats()
	if !st.Persistent {
		t.Fatal("reopened engine not flagged persistent")
	}
}
