package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"simsearch/internal/dataset"
	"simsearch/internal/edit"
)

// TestKindSelection: the word holds symbol counts exactly when every byte of
// the arena is a DNA symbol; one stray byte anywhere selects occurrence bits.
func TestKindSelection(t *testing.T) {
	reads := dataset.DNAReads(50, 3)
	stray := func(at int, b byte) []string {
		out := append([]string(nil), reads...)
		out[at] = out[at][:7] + string(b) + out[at][7:]
		return out
	}
	for _, tc := range []struct {
		name string
		data []string
		want string
	}{
		{"all-DNA", []string{"ACGT", "TTNN", ""}, "cascade/dna"},
		{"reads", reads, "cascade/dna"},
		{"empty corpus", nil, "cascade/dna"},
		{"mixed", []string{"ACGT", "Berlin"}, "cascade/bytes"},
		{"stray byte in the first read", stray(0, 'a'), "cascade/bytes"},
		{"stray byte in the last read", stray(len(reads)-1, 0xc3), "cascade/bytes"},
		{"lower-case read", []string{"ACGT", "acgt"}, "cascade/bytes"},
	} {
		e := NewCascade(tc.data)
		if e.Name() != tc.want || e.words.Counts() != (tc.want == "cascade/dna") {
			t.Errorf("%s: %s (counts=%v), want %s", tc.name, e.Name(), e.words.Counts(), tc.want)
		}
	}
}

// TestByteStatsFunnel pins the five counts on both kinds of word: the length
// windows' slots (Candidates, which no filter behind the length bucket may
// shrink: it is what every pass ratio is taken of), the slots in blocks the
// summaries let the sweep into, the first word's survivors, the kernel calls,
// the matches. Every stage prunes — the summaries and the first word on both
// kinds, the 4-gram set behind the word on reads only: on city names there
// is no second stage and the two counts agree — and every query returns
// exactly the matches of the banded DP (edit.BoundedDistance).
func TestByteStatsFunnel(t *testing.T) {
	for name, data := range map[string][]string{
		"city": dataset.Cities(3000, 7), "reads": dataset.DNAReads(1500, 7),
	} {
		e := NewCascade(data)
		var windows, matches uint64 // counted from the data
		for i, q := range dataset.Queries(data, 40, 3, 8) {
			k := i % 4
			var want []Match // the banded DP (edit.BoundedDistance), over the window
			for id, s := range data {
				if len(s) >= len(q)-k && len(s) <= len(q)+k {
					windows++
					if d, ok := edit.BoundedDistance(q, s, k); ok {
						want = append(want, Match{ID: int32(id), Dist: d})
					}
				}
			}
			if got := e.Search(Query{Text: q, K: k}); !slices.Equal(got, want) {
				t.Fatalf("%s: Search(%q,%d) = %v, oracle %v", name, q, k, got, want)
			}
			matches += uint64(len(want))
		}
		st := e.Stats()
		if st.Candidates != windows {
			t.Errorf("%s: %d candidates, but the length windows hold %d slots", name, st.Candidates, windows)
		}
		if st.Swept >= st.Candidates || st.Passed >= st.Swept || st.Survivors > st.Passed ||
			st.Matches > st.Survivors || st.Matches != matches {
			t.Errorf("%s funnel: %+v; the oracle found %d matches", name, st, matches)
		}
		if second := name == "reads"; second != (st.Survivors < st.Passed) {
			t.Errorf("%s: the 4-gram set pruned = %v, want %v: %+v", name, !second, second, st)
		}
	}
}

// TestBlockSummaryStrength pins what the order inside a length bucket is
// for: on 20,000 generated city names at k = 1 the summaries let the sweep
// into at most a quarter of the window. Generated names, the order and the
// summaries are deterministic, so the counts repeat exactly.
func TestBlockSummaryStrength(t *testing.T) {
	data := dataset.Cities(20000, 7)
	e := NewCascade(data)
	for _, q := range dataset.Queries(data, 200, 1, 8) {
		e.Search(Query{Text: q, K: 1})
	}
	st := e.Stats()
	t.Logf("%d window slots, %d swept (1/%.2f), %d past the word", st.Candidates, st.Swept, float64(st.Candidates)/float64(st.Swept), st.Passed)
	if st.Swept == 0 || 4*st.Swept > st.Candidates {
		t.Errorf("the summaries let the sweep into %d of %d window slots, want at most a quarter", st.Swept, st.Candidates)
	}
}

// TestByteQueryAllocations: a cascade query allocates its result slice and,
// at k > 0, its compiled pattern; nothing per candidate, on either kind of
// word. A hit costs no more than a miss:
// the matches leave in the slice the sweep appended them to, uncopied.
func TestByteQueryAllocations(t *testing.T) {
	for name, data := range map[string][]string{
		"city": dataset.Cities(5000, 9), "reads": dataset.DNAReads(2000, 9),
	} {
		e := NewCascade(data)
		hit := data[0]
		miss := strings.Repeat("\x7f", len(hit)) // a full length window, no survivor
		for k := 0; k <= 3; k++ {
			if len(e.Search(Query{Text: hit, K: k})) == 0 || len(e.Search(Query{Text: miss, K: k})) != 0 {
				t.Fatalf("%s k=%d: %q must match itself and %q nothing", name, k, hit, miss)
			}
			var allocs [2]float64 // hit, miss
			for i, q := range []string{hit, miss} {
				want := 1.0
				if k > 0 {
					want += testing.AllocsPerRun(100, func() { edit.CompileMyers(q) })
				}
				if m := len(e.Search(Query{Text: q, K: k})); m > 1 {
					// Few matches, in word order inside a bucket, are sorted in
					// place; long ID-ascending runs would be merged through
					// one buffer and one slice of run starts.
					want += 2
				}
				allocs[i] = testing.AllocsPerRun(100, func() { e.Search(Query{Text: q, K: k}) })
				if allocs[i] > want {
					t.Errorf("%s: Search(%q,%d): %.0f allocations, want at most %.0f", name, q, k, allocs[i], want)
				}
			}
			if allocs[0] > allocs[1] {
				t.Errorf("%s k=%d: a hit costs %.0f allocations, a miss %.0f", name, k, allocs[0], allocs[1])
			}
		}
	}
}

// TestCascadeSearchAllocs pins what a query on reads allocates: its result
// slice at k = 0, and at k = 2 and 8 also the compiled pattern, one
// allocation with its table inline. The kernel's scratch is not among them:
// only the blocked kernel (k > edit.MaxBandK) reads one; nor is the batch
// queue, which lives in the sweep's frame.
func TestCascadeSearchAllocs(t *testing.T) {
	data := dataset.DNAReads(2000, 9)
	e := NewCascade(data)
	for _, c := range []struct {
		k    int
		want float64
	}{{0, 1}, {2, 2}, {8, 2}} {
		if got := testing.AllocsPerRun(100, func() { e.Search(Query{Text: data[0], K: c.k}) }); got != c.want {
			t.Errorf("Search(k=%d): %.0f allocations, want %.0f", c.k, got, c.want)
		}
	}
}

// BenchmarkCascadeBytes sweeps 100,000 generated cities at k = 0..3 and
// 10,000 generated reads at k = 0, 4, 8, 12 and 16 and reports what the
// signature stage costs per slot of the length window and per word it reads
// (the elapsed time over the words read: what the occurrence-word kernels
// move), how many blocks the length window spans (a sixteenth of it; the
// block summaries are tested for each), how many words a query then reads
// (the slots of the blocks it enters), how many candidates its word lets
// through and how many it leaves for the kernel (on reads, what the 4-gram
// sets leave of those).
func BenchmarkCascadeBytes(b *testing.B) {
	for _, c := range []struct {
		name string
		data []string
		ks   []int
	}{
		{"city", dataset.Cities(100000, 20130322), []int{0, 1, 2, 3}},
		{"reads", dataset.DNAReads(10000, 20130322), []int{0, 4, 8, 12, 16}},
	} {
		e := NewCascade(c.data)
		for _, k := range c.ks {
			qs := dataset.Queries(c.data, 300, k, 20130322+int64(k))
			b.Run(fmt.Sprintf("%s/k%d", c.name, k), func(b *testing.B) {
				before := e.Stats()
				matches := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					matches += len(e.Search(Query{Text: qs[i%len(qs)], K: k}))
				}
				st := e.Stats()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Candidates-before.Candidates), "ns/slot")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Swept-before.Swept), "ns/word")
				b.ReportMetric(float64(st.Candidates-before.Candidates)/16/float64(b.N), "window_blocks/query")
				b.ReportMetric(float64(st.Swept-before.Swept)/float64(b.N), "swept/query")
				b.ReportMetric(float64(st.Passed-before.Passed)/float64(b.N), "first_stage/query")
				b.ReportMetric(float64(st.Survivors-before.Survivors)/float64(b.N), "survivors/query")
				if matches < b.N {
					b.Fatalf("the query itself must match: %d matches in %d queries", matches, b.N)
				}
			})
		}
	}
}
