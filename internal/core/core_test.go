package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"simsearch/internal/dataset"
	"simsearch/internal/pool"
	"simsearch/internal/scan"
	"simsearch/internal/trie"
)

func allEngines(data []string) []Searcher {
	var out []Searcher
	for s := scan.Base; s <= scan.ParallelManaged; s++ {
		out = append(out, NewSequential(data, scan.WithStrategy(s), scan.WithWorkers(4)))
	}
	out = append(out,
		NewSequential(data, scan.WithSortByLength()),
		NewTrie(data, false),
		NewTrie(data, true),
		NewTrie(data, true, trie.WithModernPruning()),
		NewCascade(data),
	)
	return out
}

func testQueries() []Query {
	return []Query{
		{Text: "berlin", K: 0}, {Text: "berlin", K: 1}, {Text: "berlin", K: 2}, {Text: "berlin", K: 3},
		{Text: "Bern", K: 1}, {Text: "", K: 0}, {Text: "", K: 2}, {Text: "zzzzzz", K: 1}, {Text: "ulm", K: 0},
	}
}

var testData = []string{
	"berlin", "bern", "bonn", "munich", "ulm", "köln", "erlangen",
	"magdeburg", "hamburg", "bremen", "", "ber", "berlins", "Berlin",
}

func TestAllEnginesVerifyAgainstReference(t *testing.T) {
	ref := Reference(testData)
	for _, eng := range allEngines(testData) {
		if err := Verify(eng, ref, testQueries()); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestEngineNamesAndLens(t *testing.T) {
	for _, eng := range allEngines(testData) {
		if eng.Name() == "" {
			t.Error("engine with empty name")
		}
		if eng.Len() != len(testData) {
			t.Errorf("%s: Len = %d, want %d", eng.Name(), eng.Len(), len(testData))
		}
	}
	if NewTrie(testData, true).Name() != "trie/compressed" {
		t.Error("compressed trie name wrong")
	}
	// The result cache keys on these names.
	if NewCascade(testData).Name() != "cascade/bytes" || NewCascade([]string{"ACGT"}).Name() != "cascade/dna" {
		t.Error("cascade name wrong")
	}
}

func TestSearchBatchWithRunner(t *testing.T) {
	eng := NewTrie(testData, true)
	qs := testQueries()
	for _, runner := range []pool.Runner{nil, pool.Serial{}, pool.Fixed{Workers: 4}} {
		batch := SearchBatch(eng, qs, runner)
		if len(batch) != len(qs) {
			t.Fatalf("batch size %d", len(batch))
		}
		for i, q := range qs {
			if !slices.Equal(batch[i], eng.Search(q)) {
				t.Errorf("runner %v query %d diverges", runner, i)
			}
		}
	}
}

func TestSearchBatchUsesEngineScheduler(t *testing.T) {
	eng := NewSequential(testData, scan.WithStrategy(scan.ParallelManaged), scan.WithWorkers(2))
	qs := testQueries()
	batch := SearchBatch(eng, qs, nil)
	ref := Reference(testData)
	for i, q := range qs {
		if !slices.Equal(batch[i], ref.Search(q)) {
			t.Errorf("query %d diverges", i)
		}
	}
}

func TestVerifyReportsDivergence(t *testing.T) {
	good := Reference(testData)
	bad := brokenSearcher{}
	err := Verify(bad, good, []Query{{Text: "berlin", K: 1}})
	if err == nil {
		t.Fatal("Verify accepted a broken engine")
	}
	ve, ok := err.(*verifyError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ve.Engine != "broken" || ve.Query.Text != "berlin" {
		t.Errorf("verifyError = %+v", ve)
	}
	if !strings.Contains(ve.Error(), "broken") {
		t.Errorf("message %q", ve.Error())
	}
}

type brokenSearcher struct{}

func (brokenSearcher) Search(q Query) []Match { return nil }
func (brokenSearcher) Name() string           { return "broken" }
func (brokenSearcher) Len() int               { return 0 }

// Integration: every engine agrees with the reference on synthetic city and
// DNA workloads, the reproduction's end-to-end correctness gate.
func TestIntegrationCityWorkload(t *testing.T) {
	data := dataset.Cities(800, 101)
	queryStrs := dataset.Queries(data, 15, 3, 103)
	var qs []Query
	for _, s := range queryStrs {
		for _, k := range []int{0, 1, 2, 3} {
			qs = append(qs, Query{Text: s, K: k})
		}
	}
	ref := Reference(data)
	for _, eng := range allEngines(data) {
		if err := Verify(eng, ref, qs); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestIntegrationDNAWorkload(t *testing.T) {
	data := dataset.DNAReads(250, 107)
	queryStrs := dataset.Queries(data, 8, 8, 109)
	var qs []Query
	for _, s := range queryStrs {
		for _, k := range []int{0, 4, 8, 16} {
			qs = append(qs, Query{Text: s, K: k})
		}
	}
	ref := Reference(data)
	engines := []Searcher{
		NewSequential(data, scan.WithStrategy(scan.SimpleTypes)),
		NewTrie(data, true, trie.WithModernPruning()),
		NewCascade(data),
	}
	for _, eng := range engines {
		if err := Verify(eng, ref, qs); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func randomString(r *rand.Rand, alphabet string, maxLen int) string {
	n := r.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	return sb.String()
}

func TestQuickAllEnginesAgree(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		data := make([]string, n)
		for i := range data {
			data[i] = randomString(r, "abAB", 8)
		}
		q := Query{Text: randomString(r, "abAB", 8), K: r.Intn(4)}
		want := Reference(data).Search(q)
		for _, eng := range []Searcher{
			NewTrie(data, true),
			NewCascade(data),
			NewSequential(data, scan.WithSortByLength()),
		} {
			if !slices.Equal(eng.Search(q), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
