package scan

import (
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"simsearch/internal/edit"
)

var cities = []string{
	"berlin", "bern", "bonn", "munich", "ulm", "köln", "erlangen",
	"magdeburg", "hamburg", "bremen", "", "ber", "berlins",
}

// refSearch is the brute-force oracle.
func refSearch(data []string, q Query) []Match {
	var out []Match
	for i, s := range data {
		if d := edit.Distance(q.Text, s); d <= q.K {
			out = append(out, Match{ID: int32(i), Dist: d})
		}
	}
	return out
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		Base: "base", FastED: "fast-ed", References: "references",
		SimpleTypes: "simple-types", ParallelNaive: "parallel-naive",
		ParallelManaged: "parallel-managed",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if Strategy(99).String() != "Strategy(99)" {
		t.Errorf("unknown strategy renders %q", Strategy(99).String())
	}
	if got := ladder(); len(got) != len(want) {
		t.Errorf("the ladder has %d rungs, want %d", len(got), len(want))
	}
}

// ladder lists the paper's §3 rungs in paper order.
func ladder() []Strategy {
	var out []Strategy
	for s := Base; s <= ParallelManaged; s++ {
		out = append(out, s)
	}
	return out
}

func TestAllStrategiesAgreeWithReference(t *testing.T) {
	queries := []Query{
		{"berlin", 0}, {"berlin", 1}, {"berlin", 2}, {"berlin", 3},
		{"bxrlin", 1}, {"", 0}, {"", 3}, {"zzz", 0}, {"magdeburg", 2},
	}
	for _, s := range ladder() {
		e := New(cities, WithStrategy(s), WithWorkers(4))
		for _, q := range queries {
			got := e.Search(q)
			want := refSearch(cities, q)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("strategy %v query %+v: got %v, want %v", s, q, got, want)
			}
		}
	}
}

func TestSearchBatchMatchesSearch(t *testing.T) {
	queries := []Query{{"berlin", 2}, {"ulm", 1}, {"köln", 0}, {"", 1}}
	for _, s := range ladder() {
		e := New(cities, WithStrategy(s), WithWorkers(3))
		batch := e.SearchBatch(queries)
		if len(batch) != len(queries) {
			t.Fatalf("strategy %v: batch size %d", s, len(batch))
		}
		for i, q := range queries {
			if !reflect.DeepEqual(batch[i], refSearch(cities, q)) {
				t.Errorf("strategy %v query %d: %v", s, i, batch[i])
			}
		}
	}
}

func TestNegativeK(t *testing.T) {
	e := New(cities)
	if got := e.Search(Query{"berlin", -1}); got != nil {
		t.Errorf("k=-1 returned %v", got)
	}
}

func TestSortByLength(t *testing.T) {
	e := New(cities, WithSortByLength())
	for _, q := range []Query{{"berlin", 0}, {"berlin", 2}, {"b", 1}, {"", 0}, {"magdeburg", 3}} {
		got := e.Search(q)
		want := refSearch(cities, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sorted search %+v: got %v, want %v", q, got, want)
		}
	}
}

func TestSortByLengthSkipsOutOfWindow(t *testing.T) {
	// All data strings have length 6; a length-2 query with k=1 must visit
	// nothing (verified indirectly: result empty, and window empty).
	data := []string{"aaaaaa", "bbbbbb", "cccccc"}
	e := New(data, WithSortByLength())
	if got := e.Search(Query{"ab", 1}); len(got) != 0 {
		t.Errorf("got %v", got)
	}
	// Window clamped beyond max length.
	if got := e.Search(Query{strings.Repeat("a", 50), 2}); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestEngineAccessors(t *testing.T) {
	e := New(cities, WithStrategy(FastED))
	if e.Len() != len(cities) {
		t.Errorf("Len = %d", e.Len())
	}
	if e.Strategy() != FastED {
		t.Errorf("Strategy = %v", e.Strategy())
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

func TestQuickStrategiesEquivalent(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		data := make([]string, n)
		for i := range data {
			data[i] = randomString(r, "abcAB", 10)
		}
		q := Query{randomString(r, "abcAB", 10), r.Intn(4)}
		want := refSearch(data, q)
		for _, s := range []Strategy{Base, FastED, References, SimpleTypes} {
			e := New(data, WithStrategy(s))
			if !reflect.DeepEqual(e.Search(q), want) {
				return false
			}
		}
		es := New(data, WithStrategy(SimpleTypes), WithSortByLength())
		return reflect.DeepEqual(es.Search(q), want)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// compCounter is a CompCounter stub (atomic, since parallel rungs add from
// pool workers).
type compCounter struct{ n atomic.Uint64 }

func (c *compCounter) Add(n uint64) { c.n.Add(n) }

func TestComparisonCounter(t *testing.T) {
	data := []string{"aa", "ab", "abcd", "abcdefgh"}
	var c compCounter
	e := New(data, withComparisonCounter(&c))
	e.Search(Query{Text: "ab", K: 1})
	// The unsorted scan invokes the kernel once per dataset string.
	if got := c.n.Load(); got != uint64(len(data)) {
		t.Fatalf("comparisons = %d, want %d", got, len(data))
	}
	// With the length window, only the two strings with len in [1,3] are
	// compared at all.
	var cs compCounter
	es := New(data, WithSortByLength(), withComparisonCounter(&cs))
	es.Search(Query{Text: "ab", K: 1})
	if got := cs.n.Load(); got != 2 {
		t.Fatalf("sorted comparisons = %d, want 2", got)
	}
	// Batches accumulate across queries.
	e.SearchBatch([]Query{{Text: "ab", K: 1}, {Text: "zz", K: 0}})
	if got := c.n.Load(); got != uint64(3*len(data)) {
		t.Fatalf("after batch: comparisons = %d, want %d", got, 3*len(data))
	}
}
