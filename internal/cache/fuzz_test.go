package cache

import (
	"slices"
	"strings"
	"testing"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/exec"
)

// FuzzCachedIdentical is the cache's differential harness: for an arbitrary
// dataset and query, a cached engine must return exactly the reference match
// set on the cold miss, on the warm hit, and again after the entry has been
// evicted — for every engine family, including the sharded executor (the
// trie stands for the engines without ContextSearcher). A
// capacity-one cache forces the eviction path on every round, and a caller
// mutating its result between lookups proves the copy-on-read contract.
//
// Run continuously with: go test -fuzz=FuzzCachedIdentical ./internal/cache
// (the seed corpus also runs as a plain test in every `go test`).
func FuzzCachedIdentical(f *testing.F) {
	f.Add(strings.Join(dataset.Cities(24, 7), "\n"), "berlin", uint8(2))
	f.Add(strings.Join(dataset.DNAReads(12, 7), "\n"), "ACGTNACGT", uint8(4))
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
		evictor := core.Query{Text: qtext + "~", K: q.K}
		want := core.Reference(data).Search(q)
		wantEvictor := core.Reference(data).Search(evictor)

		engines := []core.Searcher{
			core.NewSequential(data),
			core.NewTrie(data, true),
			exec.New(data, exec.Options{Shards: 3}),
		}
		for _, eng := range engines {
			c := New(eng, Options{Capacity: 1, shards: 1})
			check := func(stage string, q core.Query, want []core.Match) []core.Match {
				got := c.Search(q)
				if !slices.Equal(got, want) {
					t.Fatalf("%s diverges from uncached %s on %+v over %d strings:\ngot  %v\nwant %v",
						stage, eng.Name(), q, len(data), got, want)
				}
				return got
			}
			cold := check("cold miss", q, want)
			for i := range cold { // caller-side mutation must not reach the cache
				cold[i].ID, cold[i].Dist = -9, -9
			}
			check("warm hit", q, want)
			check("evictor", evictor, wantEvictor) // capacity 1: q falls out
			check("post-eviction recompute", q, want)
			st := c.Stats()
			if st.Hits != 1 || st.Misses != 3 {
				t.Fatalf("%s stats = %+v, want 1 hit / 3 misses", eng.Name(), st)
			}
		}
	})
}
