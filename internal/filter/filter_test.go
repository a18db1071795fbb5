package filter

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"simsearch/internal/edit"
)

func TestLengthFilter(t *testing.T) {
	f := Length{}
	if f.Keep("abcdef", "ab", 3) {
		t.Error("delta 4 > k 3 must be rejected")
	}
	if !f.Keep("abcdef", "ab", 4) {
		t.Error("delta 4 <= k 4 must be kept")
	}
	if !f.Keep("", "", 0) {
		t.Error("equal lengths must be kept at k=0")
	}
	if f.Name() != "length" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestFrequencyVectorOf(t *testing.T) {
	f := DNAFrequency()
	v := f.VectorOf("AACGTT")
	// Tracked order: A, C, G, N, T.
	want := Vector{2, 1, 1, 0, 2}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("v[%d] = %d, want %d", i, v[i], want[i])
		}
	}
}

func TestFrequencyBound(t *testing.T) {
	f := DNAFrequency()
	// "AAAA" vs "CCCC": 4 A-surplus one way, 4 C-surplus the other.
	if got := f.Bound(f.VectorOf("AAAA"), f.VectorOf("CCCC")); got != 4 {
		t.Errorf("Bound = %d, want 4", got)
	}
	if f.Keep("AAAA", "CCCC", 3) {
		t.Error("bound 4 > k 3 must reject")
	}
	if !f.Keep("AAAA", "CCCC", 4) {
		t.Error("bound 4 <= k 4 must keep")
	}
}

func TestVowelFrequencyTracksBothCases(t *testing.T) {
	f := VowelFrequency()
	if f.Bound(f.VectorOf("AEIOU"), f.VectorOf("aeiou")) != 0 {
		// 'A' and 'a' are distinct tracked symbols.
		t.Log("case-sensitive tracking: bound nonzero as designed")
	}
	if !f.Keep("Berlin", "Bern", 2) {
		t.Error("Berlin/Bern within k=2 must be kept")
	}
}

func TestHistogramFilter(t *testing.T) {
	h := Histogram{}
	if h.Keep("aaaa", "bbbb", 3) {
		t.Error("histogram must reject aaaa/bbbb at k=3")
	}
	if !h.Keep("abc", "cba", 0) {
		// Permutations have identical histograms; the filter cannot prune.
		t.Error("permutation must pass the histogram filter")
	}
}

func TestChain(t *testing.T) {
	c := Chain{Filters: []Filter{Length{}, Histogram{}}}
	if c.Keep("abcdef", "ab", 3) {
		t.Error("chain must reject when any member rejects")
	}
	if !c.Keep("abc", "abd", 1) {
		t.Error("chain must keep when all members keep")
	}
	if got := c.Name(); got != "chain(length,histogram)" {
		t.Errorf("Name = %q", got)
	}
}

func TestHistogramAndFrequencyNames(t *testing.T) {
	if (Histogram{}).Name() != "histogram" {
		t.Error("histogram name wrong")
	}
	f := NewFrequency("xy", "yx")
	if f.Name() != "xy" {
		t.Error("frequency name wrong")
	}
	if got := f.Symbols(); got != "yx" {
		t.Errorf("Symbols = %q, want tracking order preserved", got)
	}
	if DNAFrequency().Symbols() != "ACGNT" {
		t.Errorf("DNA symbols = %q", DNAFrequency().Symbols())
	}
}

// Compiled query-side forms must agree exactly with the one-shot Keep, and
// the internal scratch state must be cleanly restored between candidates
// (exercised by reusing one compiled query across many candidates).
func TestCompiledQueryFormsMatchKeep(t *testing.T) {
	freq := DNAFrequency()
	hist := Histogram{}
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomString(r, "ACGNTaeiou", 20)
		fq := freq.CompileQuery(q)
		hq := hist.CompileQuery(q)
		for i := 0; i < 8; i++ {
			x := randomString(r, "ACGNTaeiou", 20)
			k := r.Intn(6)
			if fq.Keep(x, k) != freq.Keep(q, x, k) {
				t.Errorf("FrequencyQuery.Keep(%q,%q,%d) diverges from Keep", q, x, k)
				return false
			}
			if hq.Keep(x, k) != hist.Keep(q, x, k) {
				t.Errorf("HistogramQuery.Keep(%q,%q,%d) diverges from Keep", q, x, k)
				return false
			}
			if b := hq.Bound(x); b > edit.Distance(q, x) {
				t.Errorf("HistogramQuery.Bound(%q,%q) = %d exceeds true distance %d",
					q, x, b, edit.Distance(q, x))
				return false
			}
			if b := fq.Bound(x); b > edit.Distance(q, x) {
				t.Errorf("FrequencyQuery.Bound(%q,%q) = %d exceeds true distance %d",
					q, x, b, edit.Distance(q, x))
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistogramQueryBoundMatchesFullDiff(t *testing.T) {
	// The streaming common-count form must equal the original 256-bucket
	// one-sided surplus computation on hand-picked shapes.
	cases := []struct{ q, x string }{
		{"aaaa", "bbbb"},
		{"abc", "cba"},
		{"", "xyz"},
		{"xyz", ""},
		{"aab", "abb"},
		{"Berlin", "Bern"},
	}
	for _, c := range cases {
		var hqv, hxv [256]int
		for i := 0; i < len(c.q); i++ {
			hqv[c.q[i]]++
		}
		for i := 0; i < len(c.x); i++ {
			hxv[c.x[i]]++
		}
		var over, under int
		for b := 0; b < 256; b++ {
			d := hqv[b] - hxv[b]
			if d > 0 {
				over += d
			} else {
				under -= d
			}
		}
		want := over
		if under > want {
			want = under
		}
		if got := (Histogram{}).CompileQuery(c.q).Bound(c.x); got != want {
			t.Errorf("Bound(%q,%q) = %d, want %d", c.q, c.x, got, want)
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

// Soundness: a filter may only reject pairs whose true distance exceeds k.
func TestQuickFilterSoundness(t *testing.T) {
	filters := []Filter{
		Length{},
		DNAFrequency(),
		VowelFrequency(),
		Histogram{},
		Chain{Filters: []Filter{Length{}, DNAFrequency(), Histogram{}}},
	}
	for _, f := range filters {
		f := f
		fn := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			q := randomString(r, "ACGNTaeiou", 20)
			x := randomString(r, "ACGNTaeiou", 20)
			k := r.Intn(6)
			if !f.Keep(q, x, k) && edit.Distance(q, x) <= k {
				return false // unsound rejection
			}
			return true
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("filter %s unsound: %v", f.Name(), err)
		}
	}
}

func TestQuickFrequencyBoundIsLowerBound(t *testing.T) {
	f := DNAFrequency()
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomString(r, "ACGNT", 20)
		x := randomString(r, "ACGNT", 20)
		return f.Bound(f.VectorOf(q), f.VectorOf(x)) <= edit.Distance(q, x)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
