package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"simsearch/internal/edit"
)

// refHamming is the oracle: every string of len(q) bytes within k
// mismatches, in ID order.
func refHamming(data []string, q string, k int) []Match {
	var out []Match
	for i, s := range data {
		if d := edit.HammingDistance(q, s); d >= 0 && d <= k {
			out = append(out, Match{ID: int32(i), Dist: d})
		}
	}
	return out
}

// TestHamming: Dist is the Hamming distance, not the edit distance, and
// matches leave in ID order.
func TestHamming(t *testing.T) {
	data := []string{"ACGT", "ACGA", "AC"}
	str := func(id int32) string { return data[id] }
	want := []Match{{ID: 0, Dist: 0}, {ID: 1, Dist: 1}}
	for _, eng := range allEngines(data) {
		if got, err := Hamming(context.Background(), eng, str, "ACGT", 1); err != nil || !slices.Equal(got, want) {
			t.Errorf("%s Hamming = %v, %v; want %v", eng.Name(), got, err, want)
		}
	}
}

func TestHammingBasic(t *testing.T) {
	data := []string{"ACGT", "ACGA", "TCGT", "ACG", "ACGTT", "", "AC"}
	str := func(id int32) string { return data[id] }
	for _, eng := range allEngines(data) {
		for _, q := range []string{"ACGT", "ACGA", "", "TTTT", "ACG"} {
			for k := 0; k <= 4; k++ {
				got, err := Hamming(context.Background(), eng, str, q, k)
				if want := refHamming(data, q, k); err != nil || !slices.Equal(got, want) {
					t.Errorf("%s Hamming(%q, %d) = %v, %v; want %v", eng.Name(), q, k, got, err, want)
				}
			}
		}
	}
}

func TestHammingNegativeK(t *testing.T) {
	data := []string{"a", ""}
	for _, eng := range allEngines(data) {
		if got, err := Hamming(context.Background(), eng, func(id int32) string { return data[id] }, "a", -1); err != nil || len(got) != 0 {
			t.Errorf("%s k=-1: %v, %v", eng.Name(), got, err)
		}
	}
}

// TestHammingLengthExactness: strings of another length never match, however
// large k is — "ab" is one edit from "abc" but has no Hamming distance to it.
func TestHammingLengthExactness(t *testing.T) {
	data := []string{"abc", "abcd", "ab"}
	want := []Match{{ID: 0, Dist: 0}}
	for _, eng := range allEngines(data) {
		if got, err := Hamming(context.Background(), eng, func(id int32) string { return data[id] }, "abc", 3); err != nil || !slices.Equal(got, want) {
			t.Errorf("%s: got %v, %v; want %v", eng.Name(), got, err, want)
		}
	}
}

func TestQuickHammingMatchesOracle(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]string, 1+r.Intn(60))
		for i := range data {
			data[i] = randomString(r, "ACGT", 10)
		}
		q := randomString(r, "ACGT", 10)
		k := r.Intn(5)
		want := refHamming(data, q, k)
		for _, eng := range allEngines(data) {
			got, err := Hamming(context.Background(), eng, func(id int32) string { return data[id] }, q, k)
			if err != nil || !slices.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestHammingContext: Hamming reports the cancellation its edit search
// reports — on the trie from SearchContext's helper, on the cascade from the
// sweep itself.
func TestHammingContext(t *testing.T) {
	data := []string{"berlin", "merlin", "ulm"}
	str := func(id int32) string { return data[id] }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Searcher{NewTrie(data, true), NewCascade(data)} {
		if ms, err := Hamming(ctx, eng, str, "berlin", 1); !errors.Is(err, context.Canceled) || ms != nil {
			t.Errorf("%s cancelled: got (%v, %v)", eng.Name(), ms, err)
		}
	}
}
