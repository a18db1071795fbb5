package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"simsearch/internal/edit"
)

func TestTopKBasic(t *testing.T) {
	data := []string{"berlin", "bern", "bonn", "ulm", "berlik"}
	for _, eng := range []Searcher{NewTrie(data, true), NewCascade(data)} {
		ms := TopK(eng, "berlin", 3, 3)
		if len(ms) != 3 {
			t.Fatalf("%s: got %d matches: %v", eng.Name(), len(ms), ms)
		}
		if ms[0].ID != 0 || ms[0].Dist != 0 {
			t.Errorf("%s: best = %v, want berlin@0", eng.Name(), ms[0])
		}
		if ms[1].Dist > ms[2].Dist {
			t.Errorf("%s: not sorted by distance: %v", eng.Name(), ms)
		}
	}
}

// TestTopKDuplicates: duplicates tie on distance and leave in ID order.
func TestTopKDuplicates(t *testing.T) {
	data := []string{"ulm", "ulm", "ulm", "ulx"}
	want := []Match{{ID: 0, Dist: 0}, {ID: 1, Dist: 0}}
	for _, eng := range []Searcher{NewTrie(data, true), NewCascade(data)} {
		if got := TopK(eng, "ulm", 2, 1); !slices.Equal(got, want) {
			t.Errorf("%s: got %v, want %v", eng.Name(), got, want)
		}
	}
}

// TestTopKEmptyStringInData: the empty string is a candidate like any other.
func TestTopKEmptyStringInData(t *testing.T) {
	data := []string{"", "a", "ab"}
	want := []Match{{ID: 1, Dist: 0}, {ID: 0, Dist: 1}}
	for _, eng := range []Searcher{NewTrie(data, true), NewCascade(data)} {
		if got := TopK(eng, "a", 2, 1); !slices.Equal(got, want) {
			t.Errorf("%s: got %v, want %v", eng.Name(), got, want)
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	data := []string{"berlin", "tokyo"}
	eng := NewTrie(data, true)
	ms := TopK(eng, "berlin", 5, 1)
	if len(ms) != 1 || ms[0].ID != 0 {
		t.Errorf("got %v", ms)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	eng := NewTrie([]string{"x"}, true)
	if got := TopK(eng, "x", 0, 3); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := TopK(eng, "x", 2, -1); got != nil {
		t.Errorf("maxDist=-1 returned %v", got)
	}
}

func TestNearest(t *testing.T) {
	data := []string{"berlin", "bern", "tokyo"}
	eng := NewTrie(data, true)
	m, ok := Nearest(eng, "berlni", 3)
	if !ok || m.ID != 0 || m.Dist != 2 {
		t.Errorf("got %v, %v", m, ok)
	}
	if _, ok := Nearest(eng, "zzzzzzzzzzzz", 2); ok {
		t.Error("found a neighbour that cannot exist")
	}
}

// refTopK computes the expected result by full enumeration.
func refTopK(data []string, text string, k, maxDist int) []Match {
	var all []Match
	for i, s := range data {
		if d := edit.Distance(text, s); d <= maxDist {
			all = append(all, Match{ID: int32(i), Dist: d})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestQuickTopKMatchesReference(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		data := make([]string, n)
		for i := range data {
			data[i] = randomString(r, "abAB", 8)
		}
		text := randomString(r, "abAB", 8)
		k := 1 + r.Intn(5)
		maxDist := r.Intn(6)
		want := refTopK(data, text, k, maxDist)
		for _, eng := range []Searcher{NewTrie(data, r.Intn(2) == 0), NewCascade(data)} {
			if !slices.Equal(TopK(eng, text, k, maxDist), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestTopKContextMatchesTopK(t *testing.T) {
	data := []string{"berlin", "bern", "bonn", "ulm", "berlik", "munich", "muenchen"}
	engines := []Searcher{
		NewTrie(data, true),
		NewSequential(data),
		NewCascade(data),
	}
	queries := []string{"berlin", "bern", "mun", "zzz", ""}
	for _, eng := range engines {
		for _, q := range queries {
			want := TopK(eng, q, 3, 4)
			got, err := TopKContext(context.Background(), eng, q, 3, 4)
			if err != nil {
				t.Fatalf("%s %q: %v", eng.Name(), q, err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s %q: TopKContext = %v, TopK = %v", eng.Name(), q, got, want)
			}
		}
	}
	// Nil context takes the fast path.
	if got, err := TopKContext(nil, engines[0], "berlin", 2, 2); err != nil || len(got) == 0 {
		t.Errorf("nil ctx: %v, %v", got, err)
	}
}

func TestTopKContextCancelled(t *testing.T) {
	data := []string{"berlin", "bern"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Searcher{NewTrie(data, true), NewSequential(data)} {
		ms, err := TopKContext(ctx, eng, "berlin", 2, 2)
		if !errors.Is(err, context.Canceled) || ms != nil {
			t.Errorf("%s: got (%v, %v), want (nil, Canceled)", eng.Name(), ms, err)
		}
	}
	// Degenerate arguments still short-circuit without touching ctx.
	if ms, err := TopKContext(ctx, NewTrie(data, true), "x", 0, 2); ms != nil || err != nil {
		t.Errorf("k=0: got (%v, %v)", ms, err)
	}
}
