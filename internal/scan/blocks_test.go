package scan

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"simsearch/internal/dataset"
	"simsearch/internal/edit"
)

// checkBlocks holds one query against one Words at each threshold of ks:
// every slot within k of the query sits in a block blockMask keeps (the
// soundness of the summary test, on the words), Sweep returns exactly the
// slots within k in slot order (the same through the sweep), and the
// counters narrow from the length window down. The DP oracle runs once per
// slot of the widest window.
func checkBlocks(t *testing.T, w *Words, q string, ks ...int) {
	t.Helper()
	dist := map[int32]int{}
	for _, k := range ks {
		pr := NewProbe(q, k)
		sq := pr.sig
		if w.counts {
			sq = pr.cnt
		}
		lo, hi := w.ar.SlotRange(pr.Lengths())
		var want []Match
		for s := lo; s < hi; s++ {
			d, ok := dist[s]
			if !ok {
				d = edit.Distance(q, string(slotBytes(w.ar, s)))
				dist[s] = d
			}
			if d > k {
				continue
			}
			want = append(want, Match{ID: w.ar.ids[s], Dist: d})
			if w.blockMask(s/blockSlots, 1, sq, k) != 1 {
				t.Fatalf("slot %d (%.40q) is within %d of %.40q (distance %d) but its block's summary %#x, %#x rejects the query's word %#x",
					s, slotBytes(w.ar, s), k, q, d, w.sums[2*(s/blockSlots)], w.sums[2*(s/blockSlots)+1], sq)
			}
		}
		got, err := w.Sweep(context.Background(), &pr, nil)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("Sweep(%.40q, %d) = %v, %v; the slots within k are %v", q, k, got, err, want)
		}
		if pr.Visited != uint64(hi-lo) || pr.Swept > pr.Visited || pr.Passed > pr.Swept || pr.Kept > pr.Passed || uint64(len(got)) > pr.Kept {
			t.Fatalf("Sweep(%.40q, %d): window %d, visited %d, swept %d, passed %d, kept %d, matches %d",
				q, k, hi-lo, pr.Visited, pr.Swept, pr.Passed, pr.Kept, len(got))
		}
	}
}

// TestBlockSummariesExhaustive packs every string up to length 4 over a
// three-letter alphabet into one arena per kind of word — 121 strings, so the
// buckets of length 3 and 4 span several blocks and every block boundary but
// one falls inside a bucket or straddles two — and holds every one of them,
// and each with a letter from outside the alphabet, against it at k = 0..5:
// one past the longest string, where no test can reject.
func TestBlockSummariesExhaustive(t *testing.T) {
	for _, tc := range []struct {
		alphabet string
		counts   bool
		stray    string
	}{
		{"aAb", false, "c"}, // 'a' and 'A' share a bucket of the occurrence bits
		{"ACN", true, "x"},  // a query byte no count field counts
	} {
		all := []string{""}
		for lo := 0; len(all[lo]) < 4; lo++ {
			for _, c := range tc.alphabet {
				all = append(all, all[lo]+string(c))
			}
		}
		w := NewWords(all)
		if w.counts != tc.counts || len(all) != 121 {
			t.Fatalf("%q: %d strings, count words = %v", tc.alphabet, len(all), w.counts)
		}
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
		for _, q := range all {
			checkBlocks(t, w, q, 0, 1, 2, 3, 4, 5)
			checkBlocks(t, w, q+tc.stray, 0, 1, 2, 3, 4, 5)
		}
	}
}

// TestBlockSummariesRandom: generated city names and reads with near
// duplicates mixed in, arenas of 0, 1, 15, 16, 17 and more slots, queries
// that are stored strings, mutations of them (editAlphabet: N, bytes >= 0x80,
// bytes no count field counts) and the empty string, at every k from 0 to
// one past the longest string for the small arenas and up to 9 for the rest.
func TestBlockSummariesRandom(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	cities, reads := dataset.Cities(700, 26), dataset.DNAReads(300, 26)
	for _, base := range [][]string{cities, reads} {
		for _, n := range []int{0, 1, 15, 16, 17, 33, 300, len(base)} {
			data := append([]string(nil), base[:n]...)
			for i := 0; i < n/4; i++ { // near duplicates: neighbours in word order
				data = append(data, mutate(r, data[r.Intn(n)], r.Intn(2)))
			}
			if base[0] == reads[0] {
				for i, s := range data { // mutate leaves the alphabet; a read corpus must not
					data[i] = strings.Map(func(c rune) rune {
						if strings.ContainsRune("ACGNT", c) {
							return c
						}
						return 'N'
					}, s)
				}
			}
			w := NewWords(data)
			if err := w.Verify(); err != nil {
				t.Fatalf("%d strings: %v", len(data), err)
			}
			if base[0] == reads[0] && !w.counts {
				t.Fatalf("%d reads: occurrence bits", len(data))
			}
			maxK, picks := 9, 4
			if n <= 33 {
				maxK, picks = w.ar.MaxLen()+1, 12
			}
			queries := []string{"", "N", "\xff"}
			for i := 0; i < picks && n > 0; i++ {
				x := data[r.Intn(len(data))]
				queries = append(queries, x, mutate(r, x, 1+r.Intn(3)))
			}
			var ks []int
			for k := 0; k <= maxK; k += 1 + k/4 {
				ks = append(ks, k)
			}
			for _, q := range queries {
				checkBlocks(t, w, q, ks...)
			}
		}
	}
}

// TestBlockSummariesAdversarial holds the shapes the summary test's argument
// leans on against hand-built arenas.
func TestBlockSummariesAdversarial(t *testing.T) {
	rep := strings.Repeat
	for name, tc := range map[string]struct {
		data    []string
		queries []string
		ks      []int
	}{
		// Count fields at and past their ceiling of 819: a block's maximum
		// saturates, and a query's surplus over it is hidden, never invented.
		"saturated count fields": {
			data: []string{rep("A", 900), rep("A", 819), rep("A", 820) + "C", rep("A", 810) + rep("C", 90),
				rep("C", 900), rep("AC", 450), rep("A", 899) + "N", rep("T", 900), rep("A", 880) + rep("G", 20)},
			queries: []string{rep("A", 900), rep("A", 860), rep("C", 890) + rep("x", 10), rep("A", 450) + rep("C", 450)},
			ks:      []int{0, 1, 40, 80, 81, 450, 900},
		},
		// A block straddling two buckets of which the window holds one, with
		// window bounds that are no multiple of sixteen: ten strings of
		// length 3, ten of length 5, four of length 6. Block 0 holds all of
		// length 3 and six of length 5; block 1 the rest of 5 and all of 6.
		"straddling blocks": {
			data: []string{"aaa", "aab", "aba", "abb", "baa", "bab", "bba", "bbb", "abc", "cba",
				"aaaaa", "aaaab", "aabbb", "abbbb", "bbbbb", "ccccc", "abcab", "bcabc", "cabca", "zzzzz",
				"aaaaaa", "bbbbbb", "abcabc", "zzzzzz"},
			queries: []string{"aaa", "bbb", "aaaaa", "zzzzz", "ccccc", "aaaaaa", "zzzzzz", "abca", "zzzz", "zz", ""},
			ks:      []int{0, 1, 2, 3, 6, 7},
		},
		// Lengths 0 and 1 and nothing else, in both kinds of word.
		"lengths 0 and 1, names": {
			data: []string{"", "a", "A", "!", "b", "\xff", "a", ""}, queries: []string{"", "a", "A", "ab", "\x81"}, ks: []int{0, 1, 2},
		},
		"lengths 0 and 1, reads": {
			data: []string{"", "A", "C", "N", "T", "A", "", "G"}, queries: []string{"", "A", "N", "AC", "x", "Ax"}, ks: []int{0, 1, 2},
		},
		// Anagrams: one word, many strings, one bucket — every block's OR
		// and AND are that word, and only the kernel tells them apart.
		"anagram bucket": {
			data:    anagrams("abcde", 100),
			queries: []string{"abcde", "edcba", "abcdf", "abcd", "aabcde"},
			ks:      []int{0, 1, 2, 4, 5, 6},
		},
		// Reads with N and a query of bytes outside ACGNT throughout.
		"reads with N": {
			data:    []string{"ACGTNNACGT", "ACGTNACGT", "NNNNNNNNNN", "ACGTACGTAC", "NACGTNACGT", "TTTTTTTTTT", "ACGTNNACGA"},
			queries: []string{"ACGTNNACGT", "xxxxxxxxxx", "ACGTxxACGT", "NNNNNNNNN", "acgtnnacgt"},
			ks:      []int{0, 1, 2, 5, 10, 11},
		},
	} {
		w := NewWords(tc.data)
		if err := w.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range tc.queries {
			checkBlocks(t, w, q, tc.ks...)
		}
	}
}

// anagrams returns the first n permutations of s in lexical order of the
// choices taken.
func anagrams(s string, n int) []string {
	var out []string
	var walk func(prefix, rest string)
	walk = func(prefix, rest string) {
		if len(out) == n {
			return
		}
		if rest == "" {
			out = append(out, prefix)
		}
		for i := range rest {
			walk(prefix+rest[i:i+1], rest[:i]+rest[i+1:])
		}
	}
	walk("", s)
	return out
}

// TestEqualWordsPastOneGroup: a bucket of more than ctxStride equal words —
// every block of a whole group carries the same summary, so a group's mask is
// all ones (the run of 64) or zero — in either kind of word, with the window
// starting and ending inside a group.
func TestEqualWordsPastOneGroup(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pair       [2]string
		hit, close string
	}{
		{"names", [2]string{"ab", "ba"}, "ab", "ax"},
		{"reads", [2]string{"AC", "CA"}, "CA", "CN"},
	} {
		data := []string{"x", "y", "z"} // three slots in front: the bucket starts off a block boundary
		if tc.name == "reads" {
			data = []string{"A", "C", "T"}
		}
		for i := 0; i < 2*ctxStride+100; i++ {
			data = append(data, tc.pair[i%2])
		}
		data = append(data, strings.Repeat(tc.pair[0], 3))
		w := NewWords(data)
		if err := w.Verify(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, q := range []string{tc.hit, tc.close, "", strings.Repeat(tc.pair[1], 3)} {
			checkBlocks(t, w, q, 0, 1, 2, 3)
		}
		pr := NewProbe(tc.hit, 0)
		ms, err := w.Sweep(context.Background(), &pr, nil)
		if err != nil || len(ms) != ctxStride+50 || pr.Swept < 2*ctxStride+100 {
			t.Fatalf("%s: %d matches, %d swept, %v; want %d matches out of the whole bucket", tc.name, len(ms), pr.Swept, err, ctxStride+50)
		}
		// Equal words keep ID order, so the whole bucket is one ascending run.
		if !slices.IsSortedFunc(ms, cmpMatchID) {
			t.Fatalf("%s: equal words must stay in ID order", tc.name)
		}
	}
}

// TestWordOrderIsThePackers: NewWords lays the arena out by length, as
// the length histogram of the data says, and orders a bucket by its words,
// not by ID; every slot holds the bytes of the ID it reports.
func TestWordOrderIsThePackers(t *testing.T) {
	data := dataset.Cities(2000, 26)
	w := NewWords(data)
	ordered := w.Arena()
	bytes, maxLen := 0, 0
	for _, s := range data {
		bytes, maxLen = bytes+len(s), max(maxLen, len(s))
	}
	if ordered.Len() != len(data) || ordered.Bytes() != bytes || ordered.MaxLen() != maxLen {
		t.Fatalf("arena shape: %d slots, %d bytes, max length %d", ordered.Len(), ordered.Bytes(), ordered.MaxLen())
	}
	for l := 0; l <= maxLen; l++ {
		n := 0
		for _, s := range data {
			if len(s) == l {
				n++
			}
		}
		if got := ordered.lenStart[l+1] - ordered.lenStart[l]; int(got) != n {
			t.Fatalf("the bucket of length %d has %d slots, the data %d strings", l, got, n)
		}
	}
	if slices.IsSorted(ordered.ids[ordered.lenStart[9]:ordered.lenStart[10]]) {
		t.Fatalf("NewWords must order a bucket by its words, not by ID")
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	for s := int32(0); s < int32(ordered.Len()); s++ {
		if got := string(slotBytes(ordered, s)); got != data[ordered.ids[s]] {
			t.Fatalf("slot %d holds %q under ID %d, which is %q", s, got, ordered.ids[s], data[ordered.ids[s]])
		}
	}
}

// TestMergeRunsShapes: the inputs the two orders produce. Word order gives
// descents nearly everywhere (sorted in place, no allocation); the §6
// Sorting rung's (length, ID) order gives a few long runs (merged through
// one buffer).
func TestMergeRunsShapes(t *testing.T) {
	ids := func(ms []Match) (out []int32) {
		for _, m := range ms {
			out = append(out, m.ID)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		in   []int32
	}{
		{"none", nil},
		{"one", []int32{7}},
		{"two ascending", []int32{3, 9}},
		{"two descending", []int32{9, 3}},
		{"three, fully descending", []int32{5, 4, 1}},
		// Duplicates of one string have one word and keep ID order: an
		// ascending run between descents.
		{"equal-key ties", []int32{40, 12, 13, 14, 15, 2, 90, 91, 1}},
	} {
		ms := make([]Match, len(tc.in))
		for i, id := range tc.in {
			ms[i] = Match{ID: id, Dist: int(id % 3)}
		}
		want := slices.Clone(tc.in)
		slices.Sort(want)
		got := mergeRuns(ms)
		if !slices.Equal(ids(got), want) {
			t.Errorf("%s: mergeRuns(%v) = %v", tc.name, tc.in, ids(got))
		}
		for _, m := range got {
			if m.Dist != int(m.ID%3) {
				t.Errorf("%s: match %d lost its distance", tc.name, m.ID)
			}
		}
	}
	for _, n := range []int{50, 500, 5000} {
		desc := make([]Match, n) // fully descending: every match its own run
		short := make([]Match, n)
		long := make([]Match, n) // four ascending runs
		for i := range desc {
			desc[i].ID = int32(n - i)
			short[i].ID = int32(2*(n/2-1-i/2) + i%2) // ascending pairs, each below the one before
			long[i].ID = int32(i%(n/4))*4 + int32(i/(n/4))
		}
		for name, in := range map[string][]Match{"descending": desc, "short runs": short, "long runs": long} {
			want := slices.Clone(in)
			slices.SortFunc(want, cmpMatchID)
			maxAllocs := 0.0
			if name == "long runs" {
				maxAllocs = 2 // the run starts and the merge buffer
			}
			var got []Match
			scratch := make([]Match, len(in))
			allocs := testing.AllocsPerRun(20, func() {
				copy(scratch, in)
				got = mergeRuns(scratch)
			})
			if !slices.Equal(got, want) {
				t.Errorf("%s of %d: not sorted by ID", name, n)
			}
			if allocs > maxAllocs {
				t.Errorf("%s of %d: %.0f allocations, want at most %.0f", name, n, allocs, maxAllocs)
			}
		}
	}
}

// TestNewWordsEmptyAndTiny: the arenas a live segment can be — no live
// record at all, one, a block less one, a block, a block and one.
func TestNewWordsEmptyAndTiny(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17} {
		for _, kind := range []string{"x%02d", "ACGT%02d"} {
			var data []string
			for i := 0; i < n; i++ {
				s := fmt.Sprintf(kind, i)
				if kind[0] == 'A' {
					s = strings.NewReplacer("0", "A", "1", "C", "2", "G", "3", "T", "4", "N", "5", "AA", "6", "CC", "7", "GG", "8", "TT", "9", "NN").Replace(s)
				}
				data = append(data, s)
			}
			w := NewWords(data)
			if err := w.Verify(); err != nil {
				t.Fatalf("%d strings of %q: %v", n, kind, err)
			}
			if got, want := len(w.sums), 2*((n+blockSlots-1)/blockSlots); got != want {
				t.Fatalf("%d strings: %d summary words, want %d", n, got, want)
			}
			for _, q := range append([]string{"", "x", "ACGT"}, data...) {
				checkBlocks(t, w, q, 0, 1, 2, 3)
			}
		}
	}
}
