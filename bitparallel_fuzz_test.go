package simsearch_test

import (
	"strings"
	"testing"

	"simsearch"
)

// FuzzBitParallelIdentical is the BitParallel acceptance harness: on
// fuzz-generated datasets over both of the paper's alphabets (natural
// language and DNA), the bit-parallel scan must return byte-identical
// results to the DP scan on every engine path — direct, with workers,
// sharded, and cached.
func FuzzBitParallelIdentical(f *testing.F) {
	cities := simsearch.GenerateCities(12, 7)
	reads := simsearch.GenerateDNAReads(6, 7)
	f.Add(strings.Join(cities, "\n"), cities[0], 2)
	f.Add(strings.Join(reads, "\n"), reads[0], 8) // >64-byte strings: blocked kernel
	f.Add("a\nab\nabc\nabcd", "abx", 1)
	f.Add("dup\ndup\ndup", "dup", 0)
	f.Add("", "anything", 3)
	f.Add("café\nnaïve", "cafe", 2)

	f.Fuzz(func(t *testing.T, blob, q string, k int) {
		if len(blob) > 2048 || len(q) > 160 {
			t.Skip("cap work per input")
		}
		data := strings.Split(blob, "\n")
		if len(data) > 64 {
			data = data[:64]
		}
		if k < 0 {
			k = -k
		}
		k %= 17 // up to the paper's largest DNA threshold
		query := simsearch.Query{Text: q, K: k}

		// The DP scan defines correctness for this harness.
		want := simsearch.NewScan(data).Search(query)

		engines := []simsearch.Searcher{
			simsearch.NewBitParallel(data, 0), // direct, serial
			// Intra-query parallel in name only: at most 64 strings never reach
			// the 4,096-slot window the chunked path starts at. The scan
			// package's forced-chunk tests (TestBitParallelQuick,
			// TestBitParallelChunkMergeRace, TestBitParallelCancellation)
			// cover that path.
			simsearch.NewBitParallel(data, 3),
			simsearch.NewSharded(data, 3, simsearch.Options{Algorithm: simsearch.BitParallel}),     // sharded
			simsearch.New(data, simsearch.Options{Algorithm: simsearch.BitParallel, CacheSize: 8}), // cached
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
