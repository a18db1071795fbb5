package edit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHammingDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "xyz", 3},
		{"abc", "ab", -1},
		{"ACGT", "AGGT", 1},
		{"ACGT", "AGGA", 2},
		{"ab", "abc", -1},
	}
	for _, c := range cases {
		if got := HammingDistance(c.a, c.b); got != c.want {
			t.Errorf("HammingDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestQuickHammingUpperBoundsEdit(t *testing.T) {
	// For equal-length strings, ed <= hamming (substitutions are one way to
	// transform).
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(16)
		a := randomString(r, "abcd", n)
		for len(a) != n {
			a = randomString(r, "abcd", n)
		}
		b := randomString(r, "abcd", n)
		for len(b) != n {
			b = randomString(r, "abcd", n)
		}
		return Distance(a, b) <= HammingDistance(a, b)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
