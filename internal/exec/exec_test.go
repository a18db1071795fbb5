package exec

import (
	"math/rand"
	"testing"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/pool"
	"simsearch/internal/scan"
)

// queriesFor builds a deterministic mixed-k batch over data.
func queriesFor(data []string, n int, ks []int, seed int64) []core.Query {
	texts := dataset.Queries(data, n, 2, seed)
	qs := make([]core.Query, n)
	for i, t := range texts {
		qs[i] = core.Query{Text: t, K: ks[i%len(ks)]}
	}
	return qs
}

// mustEqualBatches fails on the first query whose result sets differ.
func mustEqualBatches(t *testing.T, label string, got, want [][]core.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result sets, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !core.Equal(got[i], want[i]) {
			t.Fatalf("%s: query %d diverges: got %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestShardedByteIdenticalOnSeedDatasets is the acceptance check: on the
// paper's two seed datasets, the sharded executor's results are identical to
// the single-engine path, match for match, for every factory family.
func TestShardedByteIdenticalOnSeedDatasets(t *testing.T) {
	workloads := []struct {
		name string
		data []string
		ks   []int
	}{
		{"city", dataset.Cities(1200, 1), []int{0, 1, 2, 3}},
		{"dna", dataset.DNAReads(300, 1), []int{0, 4, 8}},
	}
	factories := []struct {
		name string
		f    Factory
	}{
		{"scan", nil}, // nil → DefaultFactory
		{"trie", TrieFactory(true)},
		{"bktree", BKTreeFactory()},
	}
	for _, w := range workloads {
		single := DefaultFactory(w.data)
		qs := queriesFor(w.data, 30, w.ks, 42)
		want := core.SearchBatch(single, qs, nil)
		for _, fa := range factories {
			ex := New(w.data, Options{Shards: 4, Factory: fa.f})
			mustEqualBatches(t, w.name+"/"+fa.name+"/batch", ex.SearchBatch(qs), want)
			for i, q := range qs[:10] {
				if got := ex.Search(q); !core.Equal(got, want[i]) {
					t.Fatalf("%s/%s: Search(%+v) = %v, want %v", w.name, fa.name, q, got, want[i])
				}
			}
		}
	}
}

// TestShardCountInvariance is the first metamorphic property: the shard
// count P never changes results.
func TestShardCountInvariance(t *testing.T) {
	data := dataset.Cities(900, 3)
	qs := queriesFor(data, 25, []int{0, 1, 2, 3}, 7)
	want := New(data, Options{Shards: 1}).SearchBatch(qs)
	for _, p := range []int{2, 7, 16} {
		ex := New(data, Options{Shards: p})
		if ex.NumShards() != p {
			t.Fatalf("NumShards = %d, want %d", ex.NumShards(), p)
		}
		mustEqualBatches(t, ex.Name(), ex.SearchBatch(qs), want)
	}
}

// TestPermutationMetamorphic is the second metamorphic property: permuting
// the dataset only permutes match IDs — the matched (string, distance)
// multiset is invariant.
func TestPermutationMetamorphic(t *testing.T) {
	data := dataset.Cities(400, 5)
	perm := rand.New(rand.NewSource(99)).Perm(len(data))
	shuffled := make([]string, len(data))
	for i, j := range perm {
		shuffled[j] = data[i]
	}
	ex := New(data, Options{Shards: 5})
	exShuf := New(shuffled, Options{Shards: 5})
	type hit struct {
		s string
		d int
	}
	collect := func(e *Sharded, data []string, q core.Query) map[hit]int {
		out := map[hit]int{}
		for _, m := range e.Search(q) {
			out[hit{data[m.ID], m.Dist}]++
		}
		return out
	}
	for _, q := range queriesFor(data, 15, []int{0, 1, 2}, 11) {
		a := collect(ex, data, q)
		b := collect(exShuf, shuffled, q)
		if len(a) != len(b) {
			t.Fatalf("query %+v: %d distinct hits vs %d", q, len(a), len(b))
		}
		for h, c := range a {
			if b[h] != c {
				t.Fatalf("query %+v: hit %+v count %d vs %d", q, h, c, b[h])
			}
		}
	}
}

// TestK0IsExactLookup is the third metamorphic property: k=0 returns exactly
// the positions holding the query string.
func TestK0IsExactLookup(t *testing.T) {
	data := []string{"ulm", "bonn", "ulm", "bern", "", "ulm", "bonn"}
	ex := New(data, Options{Shards: 3})
	for _, q := range []string{"ulm", "bonn", "bern", "", "paris"} {
		got := ex.Search(core.Query{Text: q, K: 0})
		var want []core.Match
		for i, s := range data {
			if s == q {
				want = append(want, core.Match{ID: int32(i), Dist: 0})
			}
		}
		if !core.Equal(got, want) {
			t.Errorf("k=0 lookup %q: got %v, want %v", q, got, want)
		}
	}
}

// TestRunnerStrategiesInterchangeable: every pool strategy yields the same
// results; scheduling is invisible in the output.
func TestRunnerStrategiesInterchangeable(t *testing.T) {
	data := dataset.Cities(300, 9)
	qs := queriesFor(data, 12, []int{1, 2}, 13)
	want := New(data, Options{Shards: 4, Runner: pool.Serial{}}).SearchBatch(qs)
	runners := []pool.Runner{
		pool.PerTask{},
		pool.Fixed{Workers: 3},
		&pool.Adaptive{Min: 1, Max: 6},
	}
	for _, r := range runners {
		ex := New(data, Options{Shards: 4, Runner: r})
		mustEqualBatches(t, "runner "+r.Name(), ex.SearchBatch(qs), want)
	}
}

func TestShardingShape(t *testing.T) {
	data := dataset.Cities(103, 2)
	ex := New(data, Options{Shards: 4})
	sizes := ex.ShardSizes()
	total := 0
	for _, n := range sizes {
		if n == 0 {
			t.Errorf("empty shard in %v", sizes)
		}
		total += n
	}
	if total != len(data) || ex.Len() != len(data) {
		t.Errorf("sizes %v sum %d, want %d", sizes, total, len(data))
	}
	// More shards than strings: clamped, never empty.
	tiny := New(data[:3], Options{Shards: 16})
	if tiny.NumShards() != 3 {
		t.Errorf("clamped shards = %d, want 3", tiny.NumShards())
	}
	// Empty dataset still yields a working executor.
	empty := New(nil, Options{Shards: 4})
	if got := empty.Search(core.Query{Text: "x", K: 2}); len(got) != 0 {
		t.Errorf("empty dataset returned %v", got)
	}
	if ex.Name() == "" || tiny.NumShards() < 1 {
		t.Error("bad executor metadata")
	}
}

func TestCountersAccumulate(t *testing.T) {
	data := dataset.Cities(200, 4)
	ex := New(data, Options{Shards: 4})
	qs := queriesFor(data, 10, []int{1, 2}, 17)
	res := ex.SearchBatch(qs)
	snaps := ex.CounterSnapshots()
	var queries, matches uint64
	for _, s := range snaps {
		queries += s.Queries
		matches += s.Matches
	}
	if want := uint64(len(qs) * ex.NumShards()); queries != want {
		t.Errorf("counter queries = %d, want %d", queries, want)
	}
	var total uint64
	for _, ms := range res {
		total += uint64(len(ms))
	}
	if matches != total {
		t.Errorf("counter matches = %d, want %d", matches, total)
	}
	ex.ResetCounters()
	for i, s := range ex.CounterSnapshots() {
		if s.Queries != 0 || s.Matches != 0 || s.Busy != 0 {
			t.Errorf("shard %d not reset: %+v", i, s)
		}
	}
}

// TestShardedVerifies runs the paper's §3.1 correctness protocol over the
// executor as a whole.
func TestShardedVerifies(t *testing.T) {
	data := dataset.Cities(500, 8)
	ex := New(data, Options{Shards: 6, Factory: ScanFactory(
		scan.WithStrategy(scan.SimpleTypes), scan.WithBandedKernel(),
		scan.WithSortByLength())})
	if err := core.Verify(ex, core.Reference(data), queriesFor(data, 20, []int{0, 1, 2, 3}, 21)); err != nil {
		t.Fatal(err)
	}
}

// TestShardOutputIsIDSorted: merge concatenates shard results and mergeByID
// (like the coordinator's merge) folds them pairwise, and both take each
// shard's list to be ID-ascending already. The cascade's arena is word-ordered:
// it emits matches in word order inside and restores ID order itself
// (scan.MergeRuns) before a shard returns; nothing downstream sorts.
func TestShardOutputIsIDSorted(t *testing.T) {
	var data []string
	for i, s := range dataset.Cities(1500, 5) {
		data = append(data, s)
		if i%3 == 0 { // duplicates in one shard: equal words, ID tie-break
			data = append(data, s, s)
		}
	}
	qs := queriesFor(data, 120, []int{0, 1, 2, 3}, 43)
	for name, f := range map[string]Factory{
		"cascade": CascadeFactory(), "bitparallel": BitParallelFactory(),
	} {
		ex := New(data, Options{Shards: 3, Factory: f})
		pairs := 0 // adjacent matches compared
		for _, q := range qs {
			for i, eng := range ex.ShardEngines() {
				ms := eng.Search(q)
				for j := 1; j < len(ms); j++ {
					pairs++
					if ms[j].ID <= ms[j-1].ID {
						t.Fatalf("%s shard %d: Search(%+v) is not ID-ascending: %v", name, i, q, ms)
					}
				}
			}
		}
		if pairs < 100 {
			t.Fatalf("%s: only %d adjacent matches compared; the test checks nothing", name, pairs)
		}
	}
}
