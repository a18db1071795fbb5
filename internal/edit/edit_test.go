package edit

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// distRef is an independent reference implementation (recursive with memo)
// used to cross-check every production algorithm.
func distRef(a, b string) int {
	memo := make(map[[2]int]int)
	var rec func(i, j int) int
	rec = func(i, j int) int {
		if i == 0 {
			return j
		}
		if j == 0 {
			return i
		}
		key := [2]int{i, j}
		if v, ok := memo[key]; ok {
			return v
		}
		v := rec(i-1, j-1)
		if a[i-1] != b[j-1] {
			d := rec(i-1, j)
			if ins := rec(i, j-1); ins < d {
				d = ins
			}
			if v < d {
				d = v
			}
			v = d + 1
		}
		memo[key] = v
		return v
	}
	return rec(len(a), len(b))
}

func TestDistancePaperExample(t *testing.T) {
	// §2.2, Figure 1: ed("AGGCGT", "AGAGT") = 2.
	if got := Distance("AGGCGT", "AGAGT"); got != 2 {
		t.Errorf("Distance(AGGCGT, AGAGT) = %d, want 2", got)
	}
	if got := DistanceFullMatrix("AGGCGT", "AGAGT"); got != 2 {
		t.Errorf("DistanceFullMatrix = %d, want 2", got)
	}
	if d, ok := BoundedDistance("AGGCGT", "AGAGT", 2); !ok || d != 2 {
		t.Errorf("BoundedDistance(k=2) = %d,%v, want 2,true", d, ok)
	}
	if _, ok := BoundedDistance("AGGCGT", "AGAGT", 1); ok {
		t.Error("BoundedDistance(k=1) reported within bound, want exceeded")
	}
}

func TestDistanceBasicCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "acb", 2},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"intention", "execution", 5},
		{"Berlin", "Bern", 2},
		{"Ulm", "Ulm", 0},
		{"a", "b", 1},
		{"ab", "ba", 2},
		{"pneumonoultramicroscopicsilicovolcanoconiosis", "pneumonoultramicroscopicsilicovolcanoconioses", 1},
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := DistanceFullMatrix(c.a, c.b); got != c.want {
			t.Errorf("DistanceFullMatrix(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if d, ok := BoundedDistance(c.a, c.b, c.want); !ok || d != c.want {
			t.Errorf("BoundedDistance(%q, %q, k=%d) = %d,%v; want exact", c.a, c.b, c.want, d, ok)
		}
	}
}

func TestMatrixBoundaries(t *testing.T) {
	m := matrix("AGGCGT", "AGAGT")
	for i := 0; i <= 6; i++ {
		if m[i][0] != i {
			t.Errorf("M[%d][0] = %d, want %d", i, m[i][0], i)
		}
	}
	for j := 0; j <= 5; j++ {
		if m[0][j] != j {
			t.Errorf("M[0][%d] = %d, want %d", j, m[0][j], j)
		}
	}
	if m[6][5] != 2 {
		t.Errorf("M[6][5] = %d, want 2", m[6][5])
	}
}

func TestBoundedDistanceLengthFilter(t *testing.T) {
	// eq. 5: |lx - ly| > k means no computation is needed.
	if _, ok := BoundedDistance("abcdef", "ab", 3); ok {
		t.Error("length filter should reject delta 4 > k 3")
	}
	if d, ok := BoundedDistance("abcdef", "ab", 4); !ok || d != 4 {
		t.Errorf("got %d,%v; want 4,true", d, ok)
	}
	if _, ok := BoundedDistance("x", "y", -1); ok {
		t.Error("negative k must never be within bound")
	}
}

func TestBoundedDistanceZeroK(t *testing.T) {
	if d, ok := BoundedDistance("same", "same", 0); !ok || d != 0 {
		t.Errorf("got %d,%v; want 0,true", d, ok)
	}
	if _, ok := BoundedDistance("same", "sane", 0); ok {
		t.Error("k=0 must behave as exact equality")
	}
}

// withinK is the search predicate (paper eq. 1) as simsearch.WithinK
// computes it.
func withinK(a, b string, k int) bool {
	_, ok := BoundedDistance(a, b, k)
	return ok
}

func TestWithinK(t *testing.T) {
	if !withinK("Berlin", "Bern", 2) {
		t.Error("WithinK(Berlin, Bern, 2) = false, want true")
	}
	if withinK("Berlin", "Bern", 1) {
		t.Error("WithinK(Berlin, Bern, 1) = true, want false")
	}
	if !withinK("", "", 0) {
		t.Error("WithinK(empty, empty, 0) = false, want true")
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

func TestAlgorithmsAgreeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	alphabets := []string{"ab", "ACGNT", "abcdefghijklmnopqrstuvwxyz éü"}
	for _, alpha := range alphabets {
		for i := 0; i < 300; i++ {
			a := randomString(r, alpha, 30)
			b := randomString(r, alpha, 30)
			want := distRef(a, b)
			if got := Distance(a, b); got != want {
				t.Fatalf("Distance(%q, %q) = %d, want %d", a, b, got, want)
			}
			if got := DistanceFullMatrix(a, b); got != want {
				t.Fatalf("DistanceFullMatrix(%q, %q) = %d, want %d", a, b, got, want)
			}
			for k := 0; k <= want+2; k++ {
				d, ok := BoundedDistance(a, b, k)
				if k < want && ok {
					t.Fatalf("BoundedDistance(%q, %q, %d) = %d, ok; want exceeded (true distance %d)", a, b, k, d, want)
				}
				if k >= want && (!ok || d != want) {
					t.Fatalf("BoundedDistance(%q, %q, %d) = %d,%v; want %d,true", a, b, k, d, ok, want)
				}
			}
		}
	}
}

func TestMyersBlockLongStrings(t *testing.T) {
	// The compiled kernel over a pattern longer than 64 bytes, one word of
	// the pattern bitset per 64 symbols (the DNA regime, length ~100).
	r := rand.New(rand.NewSource(7))
	var scratch MyersScratch
	for i := 0; i < 120; i++ {
		a := randomString(r, "ACGNT", 140)
		for len(a) <= 64 {
			a = randomString(r, "ACGNT", 140)
		}
		b := randomString(r, "ACGNT", 140)
		for len(b) <= 64 {
			b = randomString(r, "ACGNT", 140)
		}
		want := Distance(a, b)
		if got, ok := CompileMyers(a).BoundedDistanceBytes([]byte(b), len(a)+len(b), &scratch); !ok || got != want {
			t.Fatalf("CompileMyers(len %d).BoundedDistanceBytes(len %d) at k = m+n: %d, %v, want %d", len(a), len(b), got, ok, want)
		}
	}
}

// Property-based tests (testing/quick) over metric axioms.

func genPair(r *rand.Rand) (string, string) {
	const alpha = "abcdeACGNT"
	return randomString(r, alpha, 24), randomString(r, alpha, 24)
}

func TestQuickSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genPair(r)
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := genPair(r)
		return Distance(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genPair(r)
		c, _ := genPair(r)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickLengthLowerBound(t *testing.T) {
	// ed(a,b) >= |len(a)-len(b)| — the soundness of the eq. 5 filter.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genPair(r)
		d := len(a) - len(b)
		if d < 0 {
			d = -d
		}
		return Distance(a, b) >= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickSingleEditDistanceOne(t *testing.T) {
	// Applying exactly one random edit moves the distance by at most 1.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := genPair(r)
		b := mutate(r, a, 1)
		return Distance(a, b) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// mutate applies exactly n random single-character edits to s.
func mutate(r *rand.Rand, s string, n int) string {
	const alpha = "abcdeACGNT"
	bs := []byte(s)
	for i := 0; i < n; i++ {
		switch op := r.Intn(3); {
		case op == 0 && len(bs) > 0: // replace
			bs[r.Intn(len(bs))] = alpha[r.Intn(len(alpha))]
		case op == 1 && len(bs) > 0: // delete
			p := r.Intn(len(bs))
			bs = append(bs[:p], bs[p+1:]...)
		default: // insert
			p := r.Intn(len(bs) + 1)
			bs = append(bs[:p], append([]byte{alpha[r.Intn(len(alpha))]}, bs[p:]...)...)
		}
	}
	return string(bs)
}

func TestQuickMutationWithinK(t *testing.T) {
	// n edits can never push the distance above n.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := genPair(r)
		n := r.Intn(5)
		b := mutate(r, a, n)
		return Distance(a, b) <= n && withinK(a, b, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
