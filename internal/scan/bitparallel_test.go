package scan

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"simsearch/internal/edit"
)

func TestBitParallelMatchesReference(t *testing.T) {
	queries := []Query{
		{"berlin", 0}, {"berlin", 1}, {"berlin", 2}, {"berlin", 3},
		{"bxrlin", 1}, {"", 0}, {"", 3}, {"zzz", 0}, {"magdeburg", 2},
		{"köln", 1}, {"berlin", -1},
	}
	e := New(cities, WithStrategy(BitParallel))
	for _, q := range queries {
		got := e.Search(q)
		want := refSearch(cities, q)
		if !matchesEqual(got, want) {
			t.Errorf("query %+v: got %v, want %v", q, got, want)
		}
	}
}

// matchesEqual treats nil and empty as the same result set (the arena path
// returns nil on an empty window, the oracle returns nil on no matches).
func matchesEqual(a, b []Match) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestBitParallelLongStrings(t *testing.T) {
	// Patterns and data over 64 bytes exercise the blocked kernel.
	data := []string{
		strings.Repeat("ACGT", 25),       // 100
		strings.Repeat("ACGT", 25) + "A", // 101
		strings.Repeat("TGCA", 25),       // 100
		strings.Repeat("A", 70),          // 70
		"",                               // empty
		"ACGT",                           // short
	}
	e := New(data, WithStrategy(BitParallel))
	queries := []Query{
		{strings.Repeat("ACGT", 25), 0},
		{strings.Repeat("ACGT", 25), 2},
		{strings.Repeat("ACGT", 24) + "AC", 8},
		{strings.Repeat("A", 70), 16},
		{"", 4},
	}
	for _, q := range queries {
		got := e.Search(q)
		want := refSearch(data, q)
		if !matchesEqual(got, want) {
			t.Errorf("query k=%d len=%d: got %v, want %v", q.K, len(q.Text), got, want)
		}
	}
}

func TestBitParallelQuick(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		data := make([]string, n)
		for i := range data {
			data[i] = randomString(r, "abcAB", 12)
		}
		q := Query{randomString(r, "abcAB", 12), r.Intn(4)}
		want := refSearch(data, q)
		serial := New(data, WithStrategy(BitParallel))
		if !matchesEqual(serial.Search(q), want) {
			return false
		}
		// Force the chunked path even on tiny datasets.
		defer func(v int) { bitParallelMinSlots = v }(bitParallelMinSlots)
		bitParallelMinSlots = 1
		par := New(data, WithStrategy(BitParallel), WithWorkers(3))
		return matchesEqual(par.Search(q), want)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBitParallelBatch(t *testing.T) {
	queries := []Query{{"berlin", 2}, {"ulm", 1}, {"köln", 0}, {"", 1}}
	e := New(cities, WithStrategy(BitParallel), WithWorkers(2))
	batch := e.SearchBatch(queries)
	for i, q := range queries {
		if !matchesEqual(batch[i], refSearch(cities, q)) {
			t.Errorf("batch query %d: got %v", i, batch[i])
		}
	}
}

// TestBitParallelChunkMergeRace hammers the intra-query chunked path from
// many goroutines at once; run under -race in CI it proves the per-chunk
// buffers and the deferred comparison-count flushes do not share state.
func TestBitParallelChunkMergeRace(t *testing.T) {
	defer func(v int) { bitParallelMinSlots = v }(bitParallelMinSlots)
	bitParallelMinSlots = 1

	r := rand.New(rand.NewSource(42))
	data := make([]string, 3000)
	for i := range data {
		data[i] = randomString(r, "abcdef", 10)
	}
	var comps compCounter
	e := New(data, WithStrategy(BitParallel), WithWorkers(4), WithComparisonCounter(&comps))
	queries := []Query{{"abcde", 1}, {"fedcba", 2}, {"", 2}, {"abc", 0}}
	want := make([][]Match, len(queries))
	for i, q := range queries {
		want[i] = refSearch(data, q)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, q := range queries {
					if got := e.Search(q); !matchesEqual(got, want[i]) {
						t.Errorf("concurrent query %d diverged", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if comps.n.Load() == 0 {
		t.Error("comparison counter never flushed")
	}
}

// TestBitParallelCancellation covers both a pre-cancelled context (must fail
// fast) and cancellation racing a chunked scan (must either fail with
// ctx.Err() or return the complete, correct result — never a partial one).
func TestBitParallelCancellation(t *testing.T) {
	defer func(v int) { bitParallelMinSlots = v }(bitParallelMinSlots)
	bitParallelMinSlots = 1

	r := rand.New(rand.NewSource(7))
	data := make([]string, 20000)
	for i := range data {
		data[i] = randomString(r, "abcdefgh", 12)
	}
	e := New(data, WithStrategy(BitParallel), WithWorkers(4))
	q := Query{"abcdefg", 3}
	want := refSearch(data, q)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ms, err := e.SearchContext(ctx, q); err != context.Canceled || ms != nil {
		t.Fatalf("pre-cancelled: got (%v, %v)", ms, err)
	}

	// Serial engine under a pre-cancelled context: the in-scan poll fires.
	es := New(data, WithStrategy(BitParallel))
	if ms, err := es.SearchContext(ctx, q); err != context.Canceled || ms != nil {
		t.Fatalf("serial pre-cancelled: got (%v, %v)", ms, err)
	}

	for i := 0; i < 20; i++ {
		rctx, rcancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { rcancel(); close(done) }()
		ms, err := e.SearchContext(rctx, q)
		<-done
		if err != nil {
			if err != context.Canceled {
				t.Fatalf("unexpected error %v", err)
			}
			if ms != nil {
				t.Fatalf("cancelled query returned matches")
			}
		} else if !matchesEqual(ms, want) {
			t.Fatalf("completed query diverged: %d matches, want %d", len(ms), len(want))
		}
		rcancel()
	}
}

func TestArenaLayout(t *testing.T) {
	data := []string{"bbb", "a", "cc", "", "dd", "eee", "f"}
	a := NewArena(data)
	if a.Len() != len(data) || a.Bytes() != 12 || a.MaxLen() != 3 {
		t.Fatalf("arena shape: %d slots, %d bytes, max length %d", a.Len(), a.Bytes(), a.MaxLen())
	}
	// Slots must be (length, ID)-ordered and hold the right bytes, with no
	// per-slot offset stored: a slot's bytes come from its bucket's stride.
	for s := int32(0); s < int32(a.Len()); s++ {
		str := string(a.SlotBytes(s))
		if str != data[a.SlotID(s)] {
			t.Errorf("slot %d holds %q, want %q", s, str, data[a.SlotID(s)])
		}
		if s > 0 {
			prev, cur := data[a.SlotID(s-1)], str
			if len(prev) > len(cur) || (len(prev) == len(cur) && a.SlotID(s-1) >= a.SlotID(s)) {
				t.Errorf("slot %d breaks (length, ID) order", s)
			}
		}
	}
	// SlotRange must select exactly the strings in the length window.
	for lo := -1; lo <= 4; lo++ {
		for hi := lo; hi <= 5; hi++ {
			s, e := a.SlotRange(lo, hi)
			count := 0
			for _, str := range data {
				if len(str) >= lo && len(str) <= hi {
					count++
				}
			}
			if int(e-s) != count {
				t.Errorf("SlotRange(%d,%d) selects %d slots, want %d", lo, hi, e-s, count)
			}
		}
	}
	// Lengths present: 0 (""), 1 (a, f), 2 (cc, dd), 3 (bbb, eee).
	if a.Buckets() != 4 {
		t.Errorf("buckets = %d, want 4", a.Buckets())
	}
}

// TestArenaSlotBytesGaps covers the binary search over buckets when lengths
// are missing in between, and a chunked scan that starts mid-bucket.
func TestArenaSlotBytesGaps(t *testing.T) {
	data := []string{"aaaaaaa", "", "bb", "ccccccc", "", "dd", "eeeeeeeeeeee", "ff"}
	a := NewArena(data)
	for s := int32(0); s < int32(a.Len()); s++ {
		if got, want := string(a.SlotBytes(s)), data[a.SlotID(s)]; got != want {
			t.Errorf("slot %d holds %q, want %q", s, got, want)
		}
	}
	p := edit.CompileMyers("bb")
	for lo := int32(0); lo < int32(a.Len()); lo++ {
		for hi := lo + 1; hi <= int32(a.Len()); hi++ {
			ms, _ := scanArenaSlots(a, nil, p, 12, lo, hi, nil)
			if len(ms) != int(hi-lo) {
				t.Fatalf("slots [%d,%d): %d matches at a threshold that admits all", lo, hi, len(ms))
			}
			for i, m := range ms {
				if want := edit.Distance("bb", data[a.SlotID(lo+int32(i))]); m.ID != a.SlotID(lo+int32(i)) || m.Dist != want {
					t.Fatalf("slots [%d,%d): match %d = %+v, want id %d dist %d", lo, hi, i, m, a.SlotID(lo+int32(i)), want)
				}
			}
		}
	}
}

func TestArenaStats(t *testing.T) {
	e := New(cities, WithStrategy(BitParallel))
	st, ok := e.ArenaStats()
	if !ok {
		t.Fatal("no arena stats on BitParallel engine")
	}
	wantBytes := 0
	for _, s := range cities {
		wantBytes += len(s)
	}
	if st.Strings != len(cities) || st.Bytes != wantBytes || st.Buckets == 0 {
		t.Errorf("stats = %+v", st)
	}
	if _, ok := New(cities).ArenaStats(); ok {
		t.Error("non-BitParallel engine reports arena stats")
	}
}

func TestMergeRuns(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Build a random concatenation of strictly ascending unique-ID runs.
		nIDs := 1 + r.Intn(200)
		perm := r.Perm(nIDs)
		nRuns := 1 + r.Intn(8)
		var ms []Match
		for ri := 0; ri < nRuns; ri++ {
			lo, hi := ri*len(perm)/nRuns, (ri+1)*len(perm)/nRuns
			run := append([]int(nil), perm[lo:hi]...)
			sort.Ints(run)
			for _, id := range run {
				ms = append(ms, Match{ID: int32(id), Dist: id % 5})
			}
		}
		want := append([]Match(nil), ms...)
		sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
		return reflect.DeepEqual(mergeRuns(ms), want)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if got := mergeRuns(nil); got != nil {
		t.Errorf("mergeRuns(nil) = %v", got)
	}
}

func TestBitParallelComparisonCounter(t *testing.T) {
	data := []string{"aa", "ab", "abcd", "abcdefgh"}
	var c compCounter
	e := New(data, WithStrategy(BitParallel), WithComparisonCounter(&c))
	e.Search(Query{Text: "ab", K: 1})
	// The arena's bucket range admits only the strings with length in [1,3].
	if got := c.n.Load(); got != 2 {
		t.Fatalf("comparisons = %d, want 2", got)
	}
}

func TestBitParallelSortedOptionHarmless(t *testing.T) {
	// WithSortByLength is redundant on the BitParallel rung (the arena
	// already buckets by length) but must not change results.
	e := New(cities, WithStrategy(BitParallel), WithSortByLength())
	q := Query{"berlin", 2}
	if !matchesEqual(e.Search(q), refSearch(cities, q)) {
		t.Error("sorted BitParallel diverges")
	}
}
