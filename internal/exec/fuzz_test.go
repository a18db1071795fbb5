package exec

import (
	"context"
	"slices"
	"strings"
	"testing"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
)

// FuzzDifferential is the cross-engine differential harness: for an arbitrary
// dataset and query, the optimized scan, the trie index, and the sharded
// executor (over two factories, 1..5 shards, each single query with and
// without a context that can cancel) must all return exactly the match set
// of the unoptimized reference scan. So must the same
// executor over 1..3 live stores seeded with the dataset, which drop
// duplicates: its oracle is the reference over the first occurrences. The
// trie is the family here without ContextSearcher, the one served through
// core's interruptible fallback. Seeds come from the paper's two corpora: city names
// and ACGNT genome reads.
//
// Run continuously with: go test -fuzz=FuzzDifferential ./internal/exec
// (the seed corpus also runs as a plain test in every `go test`).
func FuzzDifferential(f *testing.F) {
	f.Add(strings.Join(dataset.Cities(24, 7), "\n"), "berlin", uint8(2))
	f.Add(strings.Join(dataset.Cities(40, 11), "\n"), "sankt goarshausen", uint8(3))
	f.Add(strings.Join(dataset.DNAReads(12, 7), "\n"), "ACGTNACGT", uint8(4))
	f.Add(strings.Join(dataset.DNAReads(20, 13), "\n"), strings.Repeat("ACGNT", 6), uint8(1))
	f.Add("ulm\nulm\n\nbonn", "ulm", uint8(0))
	f.Add("", "x", uint8(1))
	f.Add("aéz\nxyz", "aéz", uint8(1)) // multi-byte symbols

	f.Fuzz(func(t *testing.T, raw, qtext string, k uint8) {
		data := strings.Split(raw, "\n")
		if len(data) > 64 {
			data = data[:64]
		}
		for i, s := range data {
			if len(s) > 48 {
				data[i] = s[:48]
			}
		}
		if len(qtext) > 48 {
			qtext = qtext[:48]
		}
		q := core.Query{Text: qtext, K: int(k % 6)}
		want := core.Reference(data).Search(q)

		for _, eng := range []core.Searcher{defaultFactory(data), core.NewTrie(data, true)} {
			if got := eng.Search(q); !slices.Equal(got, want) {
				t.Fatalf("%s diverges on %+v over %d strings:\ngot  %v\nwant %v",
					eng.Name(), q, len(data), got, want)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		check := func(ex *Sharded, want []core.Match) {
			got := ex.Search(q)
			timed, err := ex.SearchContext(ctx, q)
			if err != nil || !slices.Equal(got, want) || !slices.Equal(timed, want) {
				t.Fatalf("%s diverges on %+v over %d strings:\ngot  %v\nctx  %v (err %v)\nwant %v",
					ex.Name(), q, len(data), got, timed, err, want)
			}
		}
		check(New(data, Options{Shards: 3, Factory: trieFactory}), want)
		for p := 1; p <= 5; p++ {
			check(New(data, Options{Shards: p}), want)
		}
		seed := data[:0:0]
		for _, s := range data {
			if !slices.Contains(seed, s) {
				seed = append(seed, s)
			}
		}
		wantLive := core.Reference(seed).Search(q)
		for p := 1; p <= 3; p++ {
			live, err := NewLive(LiveOptions{Shards: p, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			check(live.Sharded, wantLive)
			live.Close()
		}
	})
}
