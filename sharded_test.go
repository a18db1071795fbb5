package simsearch_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"simsearch"
	"simsearch/internal/core"
)

// TestNewShardedMatchesSingleEngine: the public sharded constructor returns
// exactly what the corresponding single engine returns, per algorithm family.
func TestNewShardedMatchesSingleEngine(t *testing.T) {
	data := simsearch.GenerateCities(800, 2)
	texts := simsearch.GenerateQueries(data, 20, 2, 3)
	qs := make([]simsearch.Query, len(texts))
	for i, s := range texts {
		qs[i] = simsearch.Query{Text: s, K: i % 4}
	}
	for _, alg := range []simsearch.Algorithm{simsearch.Scan, simsearch.Trie, simsearch.Cascade} {
		opts := simsearch.Options{Algorithm: alg}
		single := simsearch.New(data, opts)
		ex := simsearch.NewSharded(data, 4, opts)
		want := simsearch.SearchBatch(single, qs)
		got := simsearch.SearchBatch(ex, qs)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("alg %d query %d: %v vs %v", alg, i, got[i], want[i])
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("alg %d query %d: %v vs %v", alg, i, got[i], want[i])
				}
			}
		}
	}
}

func TestShardedVerifyProtocol(t *testing.T) {
	data := simsearch.GenerateCities(500, 4)
	ex := simsearch.NewSharded(data, 7, simsearch.Options{})
	qs := make([]simsearch.Query, 0, 12)
	for i, s := range simsearch.GenerateQueries(data, 12, 2, 5) {
		qs = append(qs, simsearch.Query{Text: s, K: i % 3})
	}
	if err := simsearch.Verify(ex, data, qs); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSearchContext(t *testing.T) {
	data := simsearch.GenerateCities(300, 6)
	ex := simsearch.NewSharded(data, 3, simsearch.Options{})
	q := simsearch.Query{Text: data[0], K: 1}
	got, err := simsearch.SearchContext(context.Background(), ex, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ex.Search(q)) {
		t.Error("SearchContext diverges from Search")
	}
	// Works for plain engines too.
	plain := simsearch.NewIndex(data)
	got2, err := simsearch.SearchContext(context.Background(), plain, q)
	if err != nil || len(got2) != len(got) {
		t.Fatalf("plain engine: %v, %v", got2, err)
	}
	// Cancellation surfaces as ctx.Err.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := simsearch.SearchContext(cancelled, ex, q); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want Canceled", err)
	}
}

func TestPublicSearchBatchContext(t *testing.T) {
	data := simsearch.GenerateCities(300, 8)
	qs := []simsearch.Query{{Text: data[1], K: 1}, {Text: data[2], K: 2}}
	for _, eng := range []simsearch.Searcher{
		simsearch.NewSharded(data, 3, simsearch.Options{}),
		simsearch.NewScan(data), // serial fallback path
	} {
		res, err := simsearch.SearchBatchContext(context.Background(), eng, qs)
		if err != nil {
			t.Fatal(err)
		}
		want := simsearch.SearchBatch(eng, qs)
		for i := range res {
			if res[i].Err != nil || len(res[i].Matches) != len(want[i]) {
				t.Fatalf("%s query %d: %+v want %v", eng.Name(), i, res[i], want[i])
			}
		}
	}
}

func TestShardedQueryTimeoutOption(t *testing.T) {
	// A generous per-query deadline changes nothing on a fast dataset.
	data := simsearch.GenerateCities(200, 9)
	ex := simsearch.NewSharded(data, 2, simsearch.Options{})
	res, err := ex.SearchBatchContext(core.WithQueryTimeout(context.Background(), time.Minute),
		[]simsearch.Query{{Text: data[0], K: 0}})
	if err != nil || res[0].Err != nil || len(res[0].Matches) == 0 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
}
