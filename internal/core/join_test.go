package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"simsearch/internal/core"
	"simsearch/internal/edit"
	"simsearch/internal/exec"
	"simsearch/internal/pool"
	"simsearch/internal/trie"
)

// joinEngines is one engine of every family the join composes over.
var joinEngines = []struct {
	name  string
	build func([]string) core.Searcher
}{
	{"scan-paper", func(d []string) core.Searcher { return core.NewSequential(d) }},
	{"trie-paper", func(d []string) core.Searcher { return core.NewTrie(d, true) }},
	{"trie-modern", func(d []string) core.Searcher { return core.NewTrie(d, true, trie.WithModernPruning()) }},
	{"cascade", func(d []string) core.Searcher { return core.NewCascade(d) }},
	{"sharded-3-cascade", shardedCascade},
}

func shardedCascade(d []string) core.Searcher {
	return exec.New(d, exec.Options{Shards: 3, Factory: func(d []string) core.Searcher { return core.NewCascade(d) }})
}

// refJoin is the oracle: every pair of the nested loop, verified with the
// full DP, in (R, S) order; self keeps only i < j.
func refJoin(r, s []string, k int, self bool) []core.Pair {
	var out []core.Pair
	for i, ri := range r {
		for j, sj := range s {
			if d := edit.Distance(ri, sj); d <= k && (!self || i < j) {
				out = append(out, core.Pair{R: int32(i), S: int32(j), Dist: d})
			}
		}
	}
	return out
}

// refClusters walks the oracle's graph breadth-first from each unvisited
// string in ascending order.
func refClusters(n int, pairs []core.Pair) [][]int32 {
	adj := make([][]int32, n)
	for _, p := range pairs {
		adj[p.R] = append(adj[p.R], p.S)
		adj[p.S] = append(adj[p.S], p.R)
	}
	seen := make([]bool, n)
	var out [][]int32
	for i := range n {
		if seen[i] {
			continue
		}
		seen[i] = true
		comp := []int32{int32(i)}
		for j := 0; j < len(comp); j++ {
			for _, v := range adj[comp[j]] {
				if !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		slices.Sort(comp)
		out = append(out, comp)
	}
	return out
}

func randomStrings(r *rand.Rand, n int, alphabet string, maxLen int) []string {
	out := make([]string, n)
	for i := range out {
		b := make([]byte, r.Intn(maxLen+1))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		out[i] = string(b)
	}
	return out
}

// mutatedReads is n random reads of length l, then n copies of random ones
// among them with up to 20 random edits each, so pairs fall at every k.
func mutatedReads(seed int64, n, l int) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		b := make([]byte, l)
		for j := range b {
			b[j] = "ACGT"[r.Intn(4)]
		}
		out[i] = string(b)
	}
	for range n {
		b := []byte(out[r.Intn(len(out))])
		for e := r.Intn(21); e > 0; e-- {
			at := r.Intn(len(b))
			switch r.Intn(3) {
			case 0:
				b[at] = "ACGT"[r.Intn(4)]
			case 1:
				b = append(b[:at], b[at+1:]...)
			default:
				b = slices.Insert(b, at, "ACGT"[r.Intn(4)])
			}
		}
		out = append(out, string(b))
	}
	return out
}

// checkJoin runs Join (probes r, engine over s), SelfJoin and Clusters (over
// s) on every engine family and both schedules against the oracle.
func checkJoin(t *testing.T, r, s []string, k int) {
	t.Helper()
	wantJoin, wantSelf := refJoin(r, s, k, false), refJoin(s, s, k, true)
	wantClusters := refClusters(len(s), wantSelf)
	for _, e := range joinEngines {
		eng := e.build(s)
		for _, runner := range []pool.Runner{nil, pool.Fixed{Workers: 3}} {
			if got := core.Join(eng, r, k, runner); !reflect.DeepEqual(got, wantJoin) {
				t.Errorf("%s k=%d runner=%v: Join = %v, want %v", e.name, k, runner, got, wantJoin)
			}
			if got := core.SelfJoin(eng, s, k, runner); !reflect.DeepEqual(got, wantSelf) {
				t.Errorf("%s k=%d runner=%v: SelfJoin = %v, want %v", e.name, k, runner, got, wantSelf)
			}
			if got := core.Clusters(eng, s, k, runner); !reflect.DeepEqual(got, wantClusters) {
				t.Errorf("%s k=%d runner=%v: Clusters = %v, want %v", e.name, k, runner, got, wantClusters)
			}
		}
	}
}

// TestJoinOracle checks the join composition over every engine family
// against the nested loop, one subtest per kind of input.
func TestJoinOracle(t *testing.T) {
	names := []string{"berlin", "bern", "bonn", "ulm"}
	more := []string{"berlim", "born", "ulm", "paris", ""}
	t.Run("names", func(t *testing.T) {
		for k := 0; k <= 3; k++ {
			checkJoin(t, names, more, k)
		}
	})
	t.Run("names_empty_and_one_letter", func(t *testing.T) {
		r := []string{"berlin", "ulm", "", "x"}
		s := []string{"berlim", "ulm", "paris", "", "xy"}
		for k := 0; k <= 3; k++ {
			checkJoin(t, r, s, k)
		}
	})
	t.Run("clusters", func(t *testing.T) {
		// berlin/berlim/"berlin " chain at distance 1, ulm/ulme pair up,
		// tokyo stands alone.
		data := []string{"berlin", "berlim", "berlin ", "ulm", "ulme", "tokyo"}
		checkJoin(t, data, data, 1)
		want := [][]int32{{0, 1, 2}, {3, 4}, {5}}
		for _, e := range joinEngines {
			if got := core.Clusters(e.build(data), data, 1, pool.Fixed{Workers: 2}); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Clusters = %v, want %v", e.name, got, want)
			}
		}
	})
	t.Run("self_join_literal", func(t *testing.T) {
		// Within distance 1: aaa-aab, aaa-aaa, aab-abb, aab-aaa; R < S.
		data := []string{"aaa", "aab", "abb", "zzz", "aaa"}
		want := []core.Pair{{R: 0, S: 1, Dist: 1}, {R: 0, S: 4, Dist: 0}, {R: 1, S: 2, Dist: 1}, {R: 1, S: 4, Dist: 1}}
		for _, e := range joinEngines {
			if got := core.SelfJoin(e.build(data), data, 1, nil); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: SelfJoin = %v, want %v", e.name, got, want)
			}
		}
	})
	t.Run("duplicates", func(t *testing.T) {
		dups := []string{"aaa", "aab", "abb", "zzz", "aaa"}
		for k := 0; k <= 2; k++ {
			checkJoin(t, dups, dups, k)
		}
	})
	t.Run("random_small_alphabet", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			checkJoin(t, randomStrings(r, 1+r.Intn(25), "abC", 8), randomStrings(r, 1+r.Intn(25), "abC", 8), r.Intn(4))
		}
	})
	t.Run("random_join_only", func(t *testing.T) {
		// Join alone is cheap enough for many more seeds than checkJoin.
		for seed := int64(1); seed <= 60; seed++ {
			r := rand.New(rand.NewSource(seed))
			a, b, k := randomStrings(r, 1+r.Intn(25), "abC", 10), randomStrings(r, 1+r.Intn(25), "abC", 10), r.Intn(4)
			want := refJoin(a, b, k, false)
			for _, e := range joinEngines {
				if got := core.Join(e.build(b), a, k, nil); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %s k=%d: Join = %v, want %v", seed, e.name, k, got, want)
				}
			}
		}
	})
	t.Run("random_clusters_partition", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			data, k := randomStrings(r, 1+r.Intn(30), "ab", 6), r.Intn(3)
			want := refClusters(len(data), refJoin(data, data, k, true))
			for _, e := range joinEngines {
				got := core.Clusters(e.build(data), data, k, nil)
				seen := make([]bool, len(data))
				for _, g := range got {
					if len(g) == 0 {
						t.Errorf("seed %d %s: empty component in %v", seed, e.name, got)
					}
					for _, m := range g {
						if seen[m] {
							t.Errorf("seed %d %s: %d in two components of %v", seed, e.name, m, got)
						}
						seen[m] = true
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %s k=%d: Clusters = %v, want %v", seed, e.name, k, got, want)
				}
			}
		}
	})
	t.Run("random_self_join_canonical", func(t *testing.T) {
		// Every pair has R < S, comes once, carries its true distance, and
		// every pair within k is there.
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			data, k := randomStrings(r, 1+r.Intn(30), "ab", 8), r.Intn(3)
			for _, e := range joinEngines {
				seen := map[[2]int32]bool{}
				for _, p := range core.SelfJoin(e.build(data), data, k, pool.Fixed{Workers: 2}) {
					key := [2]int32{p.R, p.S}
					if p.R >= p.S || seen[key] || p.Dist > k || p.Dist != edit.Distance(data[p.R], data[p.S]) {
						t.Errorf("seed %d %s k=%d: bad or repeated pair %v", seed, e.name, k, p)
					}
					seen[key] = true
				}
				for i := range data {
					for j := i + 1; j < len(data); j++ {
						if edit.Distance(data[i], data[j]) <= k && !seen[[2]int32{int32(i), int32(j)}] {
							t.Errorf("seed %d %s k=%d: pair (%d, %d) missing", seed, e.name, k, i, j)
						}
					}
				}
			}
		}
	})
	t.Run("short_strings_below_k", func(t *testing.T) {
		short := []string{"", "a", "ab", "abc", "abcd"}
		for k := 0; k <= 4; k++ {
			checkJoin(t, short, short, k)
		}
	})
	t.Run("dna_high_k", func(t *testing.T) {
		reads := mutatedReads(31, 20, 100)
		if name := core.NewCascade(reads).Name(); name != "cascade/dna" {
			t.Fatalf("reads built %s, want the count-word cascade", name)
		}
		for _, k := range []int{4, 8, 16} {
			if len(refJoin(reads, reads, k, true)) == 0 {
				t.Fatalf("k=%d: no pairs to find", k)
			}
			checkJoin(t, reads[:10], reads, k)
		}
	})
	t.Run("side_swap", func(t *testing.T) {
		small := []string{"abc", "abd"}
		large := []string{"abc", "abe", "xyz", "ab", "abcd"}
		for k := 0; k <= 2; k++ {
			checkJoin(t, small, large, k) // |R| < |S|
			checkJoin(t, large, small, k) // |R| > |S|
		}
	})
	t.Run("transitive_chain", func(t *testing.T) {
		// aaaa–aaab and aaab–aabb are pairs at k=1, aaaa–aabb is not: one
		// component all the same.
		chain := []string{"aaaa", "aaab", "aabb", "zz"}
		checkJoin(t, chain, chain, 1)
		if got := core.Clusters(core.NewCascade(chain), chain, 1, nil); !reflect.DeepEqual(got, [][]int32{{0, 1, 2}, {3}}) {
			t.Errorf("Clusters = %v", got)
		}
	})
	t.Run("empty_sides", func(t *testing.T) {
		for k := -1; k <= 2; k++ {
			checkJoin(t, nil, more, k)
			checkJoin(t, names, nil, k)
		}
		checkJoin(t, names, more, -1)
	})
	t.Run("empty_strings", func(t *testing.T) {
		// An empty engine probed with "a"; "" probed against "a" at k=1;
		// "" indexed and probed at k=0.
		for _, e := range joinEngines {
			if got := core.Join(e.build(nil), []string{"a"}, 1, nil); got != nil {
				t.Errorf("%s: empty engine: %v", e.name, got)
			}
			if got, want := core.Join(e.build([]string{"a"}), []string{""}, 1, nil), []core.Pair{{R: 0, S: 0, Dist: 1}}; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: empty probe: %v, want %v", e.name, got, want)
			}
			if got, want := core.Join(e.build([]string{"", "b"}), []string{""}, 0, nil), []core.Pair{{R: 0, S: 0, Dist: 0}}; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: empty string indexed: %v, want %v", e.name, got, want)
			}
		}
	})
}

// TestClustersManySingletons keeps the order contract — components by
// smallest member, members ascending — on 12,000 components, nearly all of
// them singletons, built in one ascending pass.
func TestClustersManySingletons(t *testing.T) {
	const n = 12000
	data := make([]string, n, n+3)
	for i := range data {
		data[i] = fmt.Sprintf("s%05d", i)
	}
	data = append(data, data[5], data[n-1], data[0])
	want := make([][]int32, n)
	for i := range want {
		want[i] = []int32{int32(i)}
	}
	want[5] = append(want[5], n)
	want[n-1] = append(want[n-1], n+1)
	want[0] = append(want[0], n+2)
	for _, eng := range []core.Searcher{core.NewCascade(data), shardedCascade(data)} {
		if got := core.Clusters(eng, data, 0, pool.Fixed{Workers: 2}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d components, want %d", eng.Name(), len(got), len(want))
		}
	}
}

// FuzzSelfJoin checks the composition over the cascade against the nested
// loop on fuzzed strings (one per line) and k in [0, 4].
func FuzzSelfJoin(f *testing.F) {
	f.Add("berlin\nberlim\nbern\nulm", uint8(1))
	f.Add("\na\nab\nabc\nabcd", uint8(4))
	f.Add("ACGTACGT\nACGTACGA\nTTGGCCAA\nACGTACGT", uint8(2))
	f.Add("aaaa\naaab\naabb", uint8(1))
	f.Add("café\ncafe\nnaïve\n\xff\xfe", uint8(3))
	f.Fuzz(func(t *testing.T, blob string, k uint8) {
		data := strings.Split(blob, "\n")
		if len(data) > 32 {
			data = data[:32]
		}
		kk := int(k % 5)
		eng := core.NewCascade(data)
		want := refJoin(data, data, kk, true)
		if got := core.SelfJoin(eng, data, kk, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: SelfJoin = %v, want %v", kk, got, want)
		}
		if got, want := core.Clusters(eng, data, kk, nil), refClusters(len(data), want); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: Clusters = %v, want %v", kk, got, want)
		}
	})
}
