package lsm

// The signature words on the live path: a word is a sound filter and derived
// data, so no placement of strings across delta and segments, no rebuild of a
// segment and no snapshot taken mid-write may change an answer.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/scan"
)

// apply runs a compact op script against store and model alike: "+s" inserts,
// "-s" deletes, "F" flushes, "C" compacts.
func apply(t *testing.T, st *Store, m *model, ops ...string) {
	t.Helper()
	for _, op := range ops {
		var err error
		switch op[0] {
		case '+':
			_, _, err = st.Insert(op[1:])
			m.insert(op[1:])
		case '-':
			_, err = st.Delete(op[1:])
			m.delete(op[1:])
		case 'F':
			err = st.Flush()
		case 'C':
			err = st.Compact()
		}
		if err != nil {
			t.Fatalf("op %q: %v", op, err)
		}
	}
}

// TestWordPlacements holds the four placements a word could get wrong against
// the oracle at every k up to 3, before and after a compaction.
func TestWordPlacements(t *testing.T) {
	reads := []string{"ACGTNACG", "ACGTTACG", "TTTTNNNN", "ACG"}
	cities := []string{"M\xc3\xbcnchen", "Munchen", "Bremen", "Bern", "ACGTNACX"}
	for _, tc := range []struct {
		name    string
		ops     []string
		queries []string
		check   func(t *testing.T, st *Store)
	}{
		{
			// Equal words, different bytes: at k = 0 the word compare lets
			// both through and only the bytes tell them apart.
			name:    "anagrams across delta and segment",
			ops:     []string{"+listen", "+enlist", "F", "+silent", "+tinsel"},
			queries: []string{"listen", "silent", "tinsel", "inlets"},
			check: func(t *testing.T, st *Store) {
				a, _ := scan.WordOf("listen")
				if b, _ := scan.WordOf("silent"); a != b {
					t.Fatalf("anagrams must share a word: %#x vs %#x", a, b)
				}
			},
		},
		{
			// Two kinds in one store: the flush segment in front is all
			// ACGNT and holds symbol counts, the one behind it occurrence
			// bits. Queries hold bytes >= 0x80, which no count field counts.
			name:    "count-word segment in front of an occurrence-bit segment",
			ops:     append(append(plus(cities), "F"), append(plus(reads), "F")...),
			queries: append(append([]string{"M\xfcnchen", "\xc3\xbc", "ACGTNAC\xc3"}, reads...), cities...),
			check: func(t *testing.T, st *Store) {
				if len(st.segs) != 2 || !st.segs[0].words.Counts() || st.segs[1].words.Counts() {
					t.Fatalf("want a count-word segment in front of an occurrence-bit one")
				}
			},
		},
		{
			// The tombstone lives in a newer segment than the string: the
			// old segment's word survives the filter and its bytes match,
			// and only shadowing drops it.
			name:    "tombstone in a newer segment",
			ops:     []string{"+Bremen", "+Bern", "F", "+Berlin", "F", "-Bremen", "+Bremer", "F", "-Bern"},
			queries: []string{"Bremen", "Bern", "Bremer", "Berlin"},
		},
		{
			// The edge of the length window, in the delta and in a segment.
			name:    "length difference equal to k",
			ops:     []string{"+abc", "+abcdef", "F", "+abcd", "+abcde", "+a", "+"},
			queries: []string{"abc", "abcd", "abcdef", "ab", ""},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := mustOpen(t, Options{FlushLimit: 1 << 20, MaxSegments: 100})
			m := newModel(nil)
			apply(t, st, m, tc.ops...)
			if tc.check != nil {
				tc.check(t, st)
			}
			for pass := 0; pass < 2; pass++ {
				for k := 0; k <= 3; k++ {
					checkAll(t, st, m, tc.queries, k)
				}
				apply(t, st, m, "F", "C")
			}
		})
	}
}

// plus turns strings into insert ops.
func plus(strs []string) []string {
	ops := make([]string, len(strs))
	for i, s := range strs {
		ops[i] = "+" + s
	}
	return ops
}

// TestCoversAgainstMap: the two binary searches answer exactly what the
// per-segment map they replaced did, over random records.
func TestCoversAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 50; round++ {
		state := map[int32]bool{}
		var recs []record
		for id := int32(0); id < 200; id++ {
			if rng.Intn(3) > 0 {
				live := rng.Intn(2) == 0
				state[id] = live
				recs = append(recs, record{id: id, s: fmt.Sprint("s", id), live: live})
			}
		}
		seg := newSegment(1, 0, recs)
		for id := int32(-2); id < 203; id++ {
			wantLive, wantOK := state[id]
			if live, ok := seg.covers(id); live != wantLive || ok != wantOK {
				t.Fatalf("covers(%d) = %v, %v; the map says %v, %v", id, live, ok, wantLive, wantOK)
			}
		}
	}
}

// manyMatches builds a store whose one segment holds every three-letter
// string over 14 letters — 2,744 strings, all within 3 edits of any
// three-letter query — behind a full 1,024-entry delta that tombstones 512 of
// them and adds 512 four-letter strings.
func manyMatches(t *testing.T) (*Store, *model) {
	const letters = "abcdefghijklmn"
	var ops []string
	for _, a := range letters {
		for _, b := range letters {
			for _, c := range letters {
				ops = append(ops, "+"+string([]rune{a, b, c}))
			}
		}
	}
	ops = append(ops, "F")
	for i := 1; i <= 512; i++ {
		ops = append(ops, "-"+ops[5*i][1:], "+"+ops[5*i][1:]+"x")
	}
	st := mustOpen(t, Options{FlushLimit: 1 << 20, MaxSegments: 100})
	m := newModel(nil)
	apply(t, st, m, ops...)
	if n := len(st.delta.owned); n != 1024 || len(st.segs) != 1 {
		t.Fatalf("delta owns %d ids over %d segments, want 1024 over 1", n, len(st.segs))
	}
	return st, m
}

// TestOwnedSetLazyBranch: a query with more than 2,000 segment matches
// against a full delta goes past ownedSetAfter linear probes, builds the set
// once and still returns the oracle's answer.
func TestOwnedSetLazyBranch(t *testing.T) {
	st, m := manyMatches(t)
	q := core.Query{Text: "abc", K: 3}
	if n := len(m.expect(q)); n <= 2000 {
		t.Fatalf("the query has %d matches, want more than 2000", n)
	}
	checkSearch(t, st, m, q)

	o := ownedSet{ids: st.delta.owned}
	for id := int32(0); id < 4000; id++ {
		if _, want := st.delta.ops[id]; o.has(id) != want {
			t.Fatalf("probe %d: has(%d) = %v, want %v", o.probes, id, !want, want)
		}
		if (o.set != nil) != (id >= ownedSetAfter) {
			t.Fatalf("after %d probes the set is built=%v", id+1, o.set != nil)
		}
	}
}

// TestSearchAllocatesNoMap pins what a query allocates in front of a
// 512-entry delta: the probe's pattern (two) and scratch, the buffer the
// segment sweeps share, the surviving matches, the output — nothing that
// grows with the delta (a set of its ids alone is four more).
func TestSearchAllocatesNoMap(t *testing.T) {
	universe := take(t, dedupe(dataset.Cities(1500, 22)), 1112)
	st := mustOpen(t, Options{FlushLimit: 1 << 20, MaxSegments: 100})
	m := newModel(nil)
	apply(t, st, m, append(plus(universe[:600]), "F")...)
	apply(t, st, m, plus(universe[600:1112])...)
	if n := len(st.delta.owned); n != 512 {
		t.Fatalf("delta owns %d ids, want 512", n)
	}
	for _, q := range []core.Query{{Text: universe[3], K: 1}, {Text: universe[700], K: 2}, {Text: universe[5], K: 0}} {
		checkSearch(t, st, m, q)
		if got := testing.AllocsPerRun(100, func() { st.Search(q) }); got > 6 {
			t.Errorf("Search(%+v) in front of a 512-entry delta: %.0f allocations, want at most 6", q, got)
		}
	}
}

// TestOwnedSnapshotSurvivesWrites is for -race: readers take the delta's
// owned list the way snapshotScan does — a slice header under the read lock —
// and keep reading that prefix while a writer appends past it, outgrows its
// backing array and flushes the delta it belonged to.
func TestOwnedSnapshotSurvivesWrites(t *testing.T) {
	universe := dedupe(dataset.Cities(1500, 23))
	st := mustOpen(t, Options{FlushLimit: 64, MaxSegments: 100})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, s := range universe {
			if _, _, err := st.Insert(s); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	for r := 0; ; r++ {
		st.mu.RLock()
		owned := st.delta.owned
		want := slices.Clone(owned)
		st.mu.RUnlock()
		q := core.Query{Text: universe[r%len(universe)], K: 1}
		checkInvariants(t, st, q, st.Search(q))
		if !slices.Equal(owned, want) {
			t.Fatalf("a captured owned prefix changed under a writer: %v, was %v", owned, want)
		}
		select {
		case <-done:
			if st.Stats().Flushes == 0 {
				t.Fatal("the writer never flushed")
			}
			return
		default:
		}
	}
}

// TestGramSlabFollowsSegmentBytes: the second word is derived data like the
// first. An all-ACGNT segment has it after a flush, after a compaction and
// after a reopen — told by a sweep in which the count word passes an anagram
// and the gram word drops it unread — and a segment with one other byte in
// it has occurrence bits and no second word, so whatever passes is read.
func TestGramSlabFollowsSegmentBytes(t *testing.T) {
	// Two of each letter in both, and no dinucleotide of the second more
	// than once in the first: four pair occurrences in surplus, past 2k at
	// k = 1.
	const stored, query = "AACCGGTT", "ACGTACGT"
	for _, tc := range []struct {
		name   string
		extra  [2]string // one beside the pair in its segment, one in a later flush
		second bool
	}{
		{"all-DNA", [2]string{"TTTTNNNN", "GATTACA"}, true},
		{"mixed", [2]string{"Bern", "GATTACA"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(Options{Dir: dir, FlushLimit: 1 << 20, MaxSegments: 100})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer func() { st.Close() }()
			m := newModel(nil)
			check := func(stage string, segments int) {
				t.Helper()
				if len(st.segs) != segments {
					t.Fatalf("%s: %d segments, want %d", stage, len(st.segs), segments)
				}
				seg := st.segs[len(st.segs)-1] // the oldest: it holds the pair at every stage
				pr := scan.NewProbe(query, 1)
				ms, err := seg.words.Sweep(context.Background(), &pr, 1, nil)
				if err != nil || len(ms) != 1 || seg.words.Counts() != tc.second {
					t.Fatalf("%s: sweep = %v, %v over count words = %v", stage, ms, err, seg.words.Counts())
				}
				if want := map[bool]uint64{true: 1, false: 2}[tc.second]; pr.Passed != 2 || pr.Kept != want {
					t.Errorf("%s: %d slots passed the first word and %d were read, want 2 and %d", stage, pr.Passed, pr.Kept, want)
				}
				checkAll(t, st, m, []string{stored, query, tc.extra[0], tc.extra[1]}, 1)
			}
			apply(t, st, m, "+"+stored, "+"+query, "+"+tc.extra[0], "F")
			check("flush", 1)
			apply(t, st, m, "+"+tc.extra[1], "F")
			check("second flush", 2)
			apply(t, st, m, "C")
			check("compaction", 1)
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if st, err = Open(Options{Dir: dir}); err != nil {
				t.Fatalf("reopen: %v", err)
			}
			check("reopen", 1)
		})
	}
}

// TestWordOrderIsDerivedData: the order inside a segment's length buckets and
// the block summaries over it are rebuilt, never persisted. After a flush, a
// second flush, a compaction and a reopen every segment's arena is in word
// order and its words and summaries match a recomputation from its bytes
// (scan.Words.Verify), on a city store, a read store and one that holds a
// segment of each — while searches run against the store from other
// goroutines, which under -race is the check that a segment is complete
// before a reader can reach it.
func TestWordOrderIsDerivedData(t *testing.T) {
	cities, reads := dedupe(dataset.Cities(900, 26)), dedupe(dnaUniverse(400, 14)) // short reads: the oracle is a full DP
	for _, tc := range []struct {
		name          string
		first, second []string
	}{
		{"cities", cities[:500], cities[500:800]},
		{"reads", reads[:250], reads[250:400]},
		{"reads beside cities", reads[:250], cities[:300]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(Options{Dir: dir, FlushLimit: 1 << 20, MaxSegments: 100})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer func() { st.Close() }()
			m := newModel(nil)
			queries := []string{tc.first[0], tc.first[7], tc.second[3], tc.first[1][1:] + "x"}

			stop, done := make(chan struct{}), make(chan struct{})
			searchers := func() {
				for g := 0; g < 2; g++ {
					go func(g int) {
						defer func() { done <- struct{}{} }()
						for i := g; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							q := core.Query{Text: queries[i%len(queries)], K: i % 3}
							checkInvariants(t, st, q, st.Search(q))
						}
					}(g)
				}
			}
			quiesce := func() {
				close(stop)
				<-done
				<-done
				stop = make(chan struct{})
			}
			check := func(stage string, segments int) {
				t.Helper()
				quiesce() // checkAll compares with the model, which the writer below owns
				st.mu.RLock()
				segs := st.segs
				st.mu.RUnlock()
				if len(segs) != segments {
					t.Fatalf("%s: %d segments, want %d", stage, len(segs), segments)
				}
				for i, seg := range segs {
					if err := seg.words.Verify(); err != nil {
						t.Fatalf("%s, segment %d: %v", stage, i, err)
					}
					if seg.words.Arena().Len() != len(seg.ids) {
						t.Fatalf("%s, segment %d: %d slots for %d live records", stage, i, seg.words.Arena().Len(), len(seg.ids))
					}
				}
				for k := 0; k <= 2; k++ {
					checkAll(t, st, m, queries, k)
				}
				searchers()
			}
			searchers()
			apply(t, st, m, append(plus(tc.first), "F")...)
			check("flush", 1)
			apply(t, st, m, append(plus(tc.second), "-"+tc.first[7], "F")...)
			check("second flush", 2)
			if mixed := tc.name == "reads beside cities"; mixed != (st.segs[0].words.Counts() != st.segs[1].words.Counts()) {
				t.Fatalf("segment kinds: %v, %v", st.segs[0].words.Counts(), st.segs[1].words.Counts())
			}
			apply(t, st, m, "C")
			check("compaction", 1)
			quiesce()
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if st, err = Open(Options{Dir: dir}); err != nil {
				t.Fatalf("reopen: %v", err)
			}
			searchers()
			check("reopen", 1)
			quiesce()
		})
	}
}
