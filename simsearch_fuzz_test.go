package simsearch_test

import (
	"strings"
	"testing"

	"simsearch"
)

// FuzzEnginesAgree drives the public API with fuzz-generated datasets and
// queries: the scan, the trie index, the filtered sweep, and the sharded
// executor (several shard counts, wrapping different engine families) must
// all return exactly the match set of a naive oracle built from
// simsearch.Distance.
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
		for _, eng := range engines {
			got := eng.Search(query)
			if len(got) != len(want) {
				t.Fatalf("%s: got %v, want %v (q=%q k=%d data=%q)",
					eng.Name(), got, want, q, k, data)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: got %v, want %v (q=%q k=%d data=%q)",
						eng.Name(), got, want, q, k, data)
				}
			}
		}
	})
}
