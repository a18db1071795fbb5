package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"simsearch/internal/edit"
)

// oracle returns the brute-force result set in ID order.
func oracle(data []string, q string, k int) []Match {
	var out []Match
	for i, s := range data {
		if d := edit.Distance(q, s); d <= k {
			out = append(out, Match{ID: int32(i), Dist: d})
		}
	}
	return out
}

func TestSearchMatchesOracle(t *testing.T) {
	alphabets := []string{"ACGNT", "abcdefgh Z-"}
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := alphabets[r.Intn(len(alphabets))]
		data := make([]string, r.Intn(40))
		for i := range data {
			data[i] = randomString(r, alpha, 24)
		}
		e := NewCascade(data)
		for i := 0; i < 6; i++ {
			// Queries from either alphabet: a byte query against count words
			// holds bytes no field counts.
			q := randomString(r, alphabets[r.Intn(len(alphabets))], 24)
			k := r.Intn(8)
			got := e.Search(Query{Text: q, K: k})
			want := oracle(data, q, k)
			if !slices.Equal(got, want) {
				t.Errorf("seed %d %s: Search(%q,%d) = %v, want %v", seed, e.Name(), q, k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Soundness: the signature stage may not reject a true match. Verify-only
// (the stage off) is exhaustive ground truth over the same length windows,
// and the full cascade must return exactly that, on both kinds of word.
func TestStagesNeverRejectTrueMatch(t *testing.T) {
	combos := [][]CascadeOption{nil, {WithoutFrequency()}}
	alphabets := []string{"ACGNT", "city name alphabet"}
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := alphabets[r.Intn(len(alphabets))]
		data := make([]string, 1+r.Intn(30))
		for i := range data {
			data[i] = randomString(r, alpha, 20)
		}
		engines := make([]*Cascade, len(combos))
		for i, c := range combos {
			engines[i] = NewCascade(data, c...)
		}
		for i := 0; i < 4; i++ {
			q := randomString(r, alpha, 20)
			k := r.Intn(6)
			want := engines[len(engines)-1].Search(Query{Text: q, K: k}) // verify-only: no signature stage
			for _, e := range engines[:len(engines)-1] {
				if got := e.Search(Query{Text: q, K: k}); !slices.Equal(got, want) {
					t.Errorf("seed %d: %s diverges from verify-only on (%q,%d): got %v, want %v",
						seed, e.Name(), q, k, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestShortStringsAndZeroK(t *testing.T) {
	// Very short and empty strings, k=0 exact lookup — among anagrams too,
	// whose words are equal — on both kinds of word.
	dna := []string{"", "A", "AC", "CA", "ACG", "GCA", "ACGT"}
	for _, data := range [][]string{dna, append([]string{"x", "xy", "yx"}, dna...)} {
		e := NewCascade(data)
		for _, q := range []string{"", "A", "AC", "CA", "B", "xy", "ACGT", "TGCA"} {
			for k := 0; k < 4; k++ {
				if got, want := e.Search(Query{Text: q, K: k}), oracle(data, q, k); !slices.Equal(got, want) {
					t.Errorf("%s: Search(%q,%d) = %v, want %v", e.Name(), q, k, got, want)
				}
			}
		}
		if ms := e.Search(Query{Text: "ACG", K: -1}); ms != nil {
			t.Errorf("negative k must return nil, got %v", ms)
		}
	}
}

func TestSearchContextCancellation(t *testing.T) {
	data := make([]string, 3000)
	for i := range data {
		data[i] = strings.Repeat("ACGT", 6)
	}
	q := strings.Repeat("ACGT", 6)
	for _, e := range []*Cascade{NewCascade(data), NewCascade(append(data, "not dna"))} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.SearchContext(ctx, Query{Text: q, K: 2}); err == nil {
			t.Errorf("%s: pre-cancelled context must abort the sweep", e.Name())
		}
		if ms, err := e.SearchContext(context.Background(), Query{Text: q, K: 0}); err != nil || len(ms) < 3000 {
			t.Errorf("%s: uncancelled exact search: %d matches, err %v", e.Name(), len(ms), err)
		}
	}
}

func TestStatsSurvivorFunnel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := make([]string, 500)
	for i := range data {
		data[i] = randomString(r, "ACGNT", 30)
	}
	e := NewCascade(data)
	for i := 0; i < 20; i++ {
		e.Search(Query{Text: randomString(r, "ACGNT", 30), K: 1 + r.Intn(3)})
	}
	st := e.Stats()
	if st.Queries != 20 {
		t.Errorf("Queries = %d", st.Queries)
	}
	if st.ArenaBytes <= 0 || st.Buckets <= 0 || st.Strings != len(data) {
		t.Errorf("layout stats wrong: %+v", st)
	}
	// The funnel may only narrow: every stage's survivors are a subset of the
	// previous stage's.
	if st.Candidates < st.Swept || st.Swept < st.Passed || st.Passed < st.Survivors || st.Survivors < st.Matches {
		t.Errorf("survivor funnel widened: %+v", st)
	}
	if st.Candidates == 0 {
		t.Error("length stage admitted no candidates over 20 random queries")
	}
}

func TestComparisonCounterCountsVerifyCalls(t *testing.T) {
	var total uint64
	var mu sync.Mutex
	add := addFunc(func(n uint64) { mu.Lock(); total += n; mu.Unlock() })
	r := rand.New(rand.NewSource(3))
	data := make([]string, 200)
	for i := range data {
		data[i] = randomString(r, "ACGNT", 25)
	}
	e := NewCascade(data, WithComparisonCounter(add))
	for i := 0; i < 10; i++ {
		e.Search(Query{Text: randomString(r, "ACGNT", 25), K: 2})
	}
	mu.Lock()
	got := total
	mu.Unlock()
	if got != e.Stats().Survivors {
		t.Errorf("comparison counter = %d, want verify calls %d", got, e.Stats().Survivors)
	}
}

type addFunc func(uint64)

func (f addFunc) Add(n uint64) { f(n) }

func TestConcurrentSearches(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dna := make([]string, 800)
	for i := range dna {
		dna[i] = randomString(r, "ACGNT", 24)
	}
	city := make([]string, 800)
	for i := range city {
		city[i] = randomString(r, "abcdefgh ", 24)
	}
	for _, e := range []*Cascade{NewCascade(dna), NewCascade(city)} {
		e := e
		want := e.Search(Query{Text: "ACGNTACG", K: 3})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rr := rand.New(rand.NewSource(seed))
				for i := 0; i < 40; i++ {
					if got := e.Search(Query{Text: "ACGNTACG", K: 3}); !slices.Equal(got, want) {
						t.Errorf("%s: concurrent result diverged", e.Name())
						return
					}
					e.Search(Query{Text: randomString(rr, "abcACGNT", 20), K: rr.Intn(5)})
					e.Stats()
				}
			}(int64(g))
		}
		wg.Wait()
	}
}
