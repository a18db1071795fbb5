package simsearch_test

import (
	"sort"
	"strings"
	"testing"

	"simsearch"
)

// FuzzEnginesAgree drives the public API with fuzz-generated datasets and
// queries: the scan, the trie index, the filtered sweep, and the sharded
// executor (several shard counts, wrapping different engine families) must
// all return exactly the match set of a naive oracle built from
// simsearch.Distance, and on every engine simsearch.TopK and
// simsearch.HammingSearch must equal oracles built from simsearch.Distance
// and simsearch.HammingDistance.
//
// The dataset arrives as one newline-joined string so the fuzzer can splice
// real corpus lines; k is reduced mod 6 to the thresholds the paper uses.
func FuzzEnginesAgree(f *testing.F) {
	cities := simsearch.GenerateCities(12, 42)
	reads := simsearch.GenerateDNAReads(6, 42)
	f.Add(strings.Join(cities, "\n"), cities[0], 2)
	f.Add(strings.Join(reads, "\n"), reads[0][:8], 4)
	f.Add("a\nab\nabc\nabcd", "abx", 1)
	f.Add("dup\ndup\ndup", "dup", 0)
	f.Add("", "anything", 3)
	f.Add("café\nnaive\nnaïve", "cafe", 1)
	f.Add("listen\nsilent\nenlist\ntinsel", "listen", 5)           // equal-length anagrams
	f.Add("\x80\xff\xfe\n\xff\xff\xff\nab\x80", "\xff\x80\xfe", 2) // bytes >= 0x80
	f.Add("ulm\nbonn\nbern", "frankfurt am main", 3)               // longer than every string
	f.Add("ab\nba\nxy\na\nabc", "ab", 4)                           // k >= len(q)

	f.Fuzz(func(t *testing.T, blob, q string, k int) {
		if len(blob) > 2048 || len(q) > 48 {
			t.Skip("cap work per input")
		}
		data := strings.Split(blob, "\n")
		if len(data) > 64 {
			data = data[:64]
		}
		if k < 0 {
			k = -k
		}
		k %= 6
		query := simsearch.Query{Text: q, K: k}

		// Oracle: definitionally correct, no filters, no pruning.
		var want []simsearch.Match
		for i, s := range data {
			if d := simsearch.Distance(q, s); d <= k {
				want = append(want, simsearch.Match{ID: int32(i), Dist: d})
			}
		}

		engines := []simsearch.Searcher{
			simsearch.NewScan(data),
			simsearch.NewIndex(data),
			simsearch.NewCascade(data),
			simsearch.NewSharded(data, 1, simsearch.Options{}),
			simsearch.NewSharded(data, 3, simsearch.Options{Algorithm: simsearch.Trie}),
			simsearch.NewSharded(data, 5, simsearch.Options{Algorithm: simsearch.Cascade}),
		}
		// Top-n oracle: the edit matches in (distance, ID) order, first n.
		n := 1 + len(blob)%5
		wantTop := append([]simsearch.Match(nil), want...)
		sort.SliceStable(wantTop, func(i, j int) bool { return wantTop[i].Dist < wantTop[j].Dist })
		if len(wantTop) > n {
			wantTop = wantTop[:n]
		}
		var wantHam []simsearch.Match
		for i, s := range data {
			if d := simsearch.HammingDistance(q, s); d >= 0 && d <= k {
				wantHam = append(wantHam, simsearch.Match{ID: int32(i), Dist: d})
			}
		}

		for _, eng := range engines {
			for _, c := range []struct {
				what      string
				got, want []simsearch.Match
			}{
				{"Search", eng.Search(query), want},
				{"TopK", simsearch.TopK(eng, q, n, k), wantTop},
				{"HammingSearch", simsearch.HammingSearch(eng, data, q, k), wantHam},
			} {
				if !matchesEqual(c.got, c.want) {
					t.Fatalf("%s %s: got %v, want %v (q=%q k=%d n=%d data=%q)",
						eng.Name(), c.what, c.got, c.want, q, k, n, data)
				}
			}
		}
	})
}
