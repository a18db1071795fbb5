package passjoin

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"simsearch/internal/edit"
)

func refJoin(r, s []string, k int) []Pair {
	var out []Pair
	for i, ri := range r {
		for j, sj := range s {
			if d := edit.Distance(ri, sj); d <= k {
				out = append(out, Pair{R: int32(i), S: int32(j), Dist: d})
			}
		}
	}
	return out
}

// probeAll joins by probing an index over s with every string of r, keeping
// only pairs with R < S when self is set: the way the join package's
// PassJoin algorithm drives the index.
func probeAll(r, s []string, k int, self bool) []Pair {
	idx := New(s, k)
	var out []Pair
	for i, ri := range r {
		for _, p := range idx.Probe(ri) {
			if !self || int32(i) < p.S {
				out = append(out, Pair{R: int32(i), S: p.S, Dist: p.Dist})
			}
		}
	}
	return out
}

func TestSegBounds(t *testing.T) {
	// l=10, k=2 -> 3 segments: 4,3,3 starting at 0,4,7.
	wantStart := []int{0, 4, 7}
	wantLen := []int{4, 3, 3}
	for i := 0; i < 3; i++ {
		start, l := segBounds(10, 2, i)
		if start != wantStart[i] || l != wantLen[i] {
			t.Errorf("segBounds(10,2,%d) = (%d,%d), want (%d,%d)",
				i, start, l, wantStart[i], wantLen[i])
		}
	}
	// Segments tile the string exactly.
	total := 0
	for i := 0; i <= 2; i++ {
		_, l := segBounds(10, 2, i)
		total += l
	}
	if total != 10 {
		t.Errorf("segments cover %d bytes, want 10", total)
	}
	// Short string: l=2, k=3 -> segments 1,1,0,0.
	if _, l := segBounds(2, 3, 2); l != 0 {
		t.Errorf("expected empty segment, got len %d", l)
	}
}

func TestProbeBasic(t *testing.T) {
	data := []string{"berlin", "bern", "bonn", "ulm", "berlim"}
	idx := New(data, 1)
	if idx.K() != 1 || idx.Len() != 5 {
		t.Errorf("K=%d Len=%d", idx.K(), idx.Len())
	}
	got := idx.Probe("berlin")
	want := []Pair{{S: 0, Dist: 0}, {S: 4, Dist: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Probe = %v, want %v", got, want)
	}
}

func TestJoinAgainstReference(t *testing.T) {
	r := []string{"berlin", "ulm", "", "x"}
	s := []string{"berlim", "ulm", "paris", "", "xy"}
	for k := 0; k <= 3; k++ {
		got := probeAll(r, s, k, false)
		want := refJoin(r, s, k)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: got %v, want %v", k, got, want)
		}
	}
}

func TestJoinEdgeCases(t *testing.T) {
	if got := New(nil, 1).Probe("a"); len(got) != 0 {
		t.Errorf("empty index: %v", got)
	}
	if got := New([]string{"a"}, 1).Probe(""); !reflect.DeepEqual(got, []Pair{{S: 0, Dist: 1}}) {
		t.Errorf("empty probe: %v", got)
	}
	if got := New([]string{"", "b"}, 0).Probe(""); !reflect.DeepEqual(got, []Pair{{S: 0, Dist: 0}}) {
		t.Errorf("empty string indexed: %v", got)
	}
}

func TestSelfJoin(t *testing.T) {
	data := []string{"aaa", "aab", "abb", "zzz", "aaa"}
	got := probeAll(data, data, 1, true)
	want := []Pair{{0, 1, 1}, {0, 4, 0}, {1, 2, 1}, {1, 4, 1}}
	// Pairs come in probe order (R ascending), same as want.
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestShortStringsBelowK(t *testing.T) {
	// Strings shorter than k+1 exercise the empty-segment fallback.
	data := []string{"", "a", "ab", "abc", "abcd"}
	for k := 0; k <= 4; k++ {
		got := probeAll(data, data, k, false)
		want := refJoin(data, data, k)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: got %v, want %v", k, got, want)
		}
	}
}

func randomStrings(r *rand.Rand, n int, alphabet string, maxLen int) []string {
	out := make([]string, n)
	for i := range out {
		l := r.Intn(maxLen + 1)
		var sb strings.Builder
		for j := 0; j < l; j++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		out[i] = sb.String()
	}
	return out
}

func TestQuickJoinAgreesWithReference(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomStrings(r, 1+r.Intn(25), "abC", 10)
		b := randomStrings(r, 1+r.Intn(25), "abC", 10)
		k := r.Intn(4)
		return reflect.DeepEqual(probeAll(a, b, k, false), refJoin(a, b, k))
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestQuickSelfJoinCanonical(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := randomStrings(r, 1+r.Intn(30), "ab", 8)
		k := r.Intn(3)
		pairs := probeAll(data, data, k, true)
		seen := map[[2]int32]bool{}
		for _, p := range pairs {
			if p.R >= p.S {
				return false
			}
			key := [2]int32{p.R, p.S}
			if seen[key] {
				return false
			}
			seen[key] = true
			if edit.Distance(data[p.R], data[p.S]) != p.Dist || p.Dist > k {
				return false
			}
		}
		// Completeness: every qualifying pair present.
		for i := range data {
			for j := i + 1; j < len(data); j++ {
				if edit.Distance(data[i], data[j]) <= k && !seen[[2]int32{int32(i), int32(j)}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDNARegimeHighK(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	genome := randomStrings(r, 1, "ACGT", 0)[0]
	for len(genome) < 2000 {
		genome += randomStrings(r, 1, "ACGT", 500)[0]
	}
	var data []string
	for i := 0; i+100 <= len(genome) && len(data) < 60; i += 23 {
		data = append(data, genome[i:i+100])
	}
	for _, k := range []int{4, 8, 16} {
		got := probeAll(data, data, k, true)
		var want []Pair
		for i := range data {
			for j := i + 1; j < len(data); j++ {
				if d := edit.Distance(data[i], data[j]); d <= k {
					want = append(want, Pair{int32(i), int32(j), d})
				}
			}
		}
		if len(got) != len(want) {
			t.Errorf("k=%d: %d pairs, want %d", k, len(got), len(want))
		}
	}
}
