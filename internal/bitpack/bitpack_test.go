package bitpack

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"simsearch/internal/edit"
)

func TestPackRoundTrip(t *testing.T) {
	for _, s := range []string{"", "A", "ACGNT", strings.Repeat("ACGTN", 50)} {
		seq, err := Pack(s)
		if err != nil {
			t.Fatalf("Pack(%q): %v", s, err)
		}
		if seq.Len() != len(s) {
			t.Errorf("Len = %d, want %d", seq.Len(), len(s))
		}
		if got := seq.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestPackInvalidSymbol(t *testing.T) {
	if _, err := Pack("ACGX"); err == nil {
		t.Error("Pack accepted invalid symbol X")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPack did not panic on invalid input")
		}
	}()
	MustPack("ACGX")
}

func TestPackedBytesSaveMemory(t *testing.T) {
	s := strings.Repeat("ACGTN", 20) // 100 symbols
	seq := MustPack(s)
	// 100 symbols -> ceil(100/21) = 5 words = 40 bytes vs 100 raw.
	if seq.PackedBytes() != 40 {
		t.Errorf("PackedBytes = %d, want 40", seq.PackedBytes())
	}
}

func TestDistanceMatchesUnpacked(t *testing.T) {
	cases := [][2]string{
		{"AGGCGT", "AGAGT"}, // the paper's §2.2 example, distance 2
		{"", ""},
		{"ACGT", ""},
		{"ACGT", "ACGT"},
		{"AAAA", "TTTT"},
	}
	for _, c := range cases {
		want := edit.Distance(c[0], c[1])
		got := Distance(MustPack(c[0]), MustPack(c[1]))
		if got != want {
			t.Errorf("Distance(%q, %q) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func randomDNA(r *rand.Rand, maxLen int) string {
	const alpha = "ACGNT"
	n := r.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[r.Intn(len(alpha))])
	}
	return sb.String()
}

func TestQuickDistanceAgreesWithEdit(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomDNA(r, 120)
		b := randomDNA(r, 120)
		return Distance(MustPack(a), MustPack(b)) == edit.Distance(a, b)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickBoundedAgreesWithEdit(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomDNA(r, 60)
		b := randomDNA(r, 60)
		k := r.Intn(10)
		wd, wok := edit.BoundedDistance(a, b, k)
		gd, gok := BoundedDistance(MustPack(a), MustPack(b), k)
		if wok != gok {
			return false
		}
		return !wok || wd == gd
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBoundedDistanceZeroK(t *testing.T) {
	a := MustPack("ACGTACGT")
	if d, ok := BoundedDistance(a, MustPack("ACGTACGT"), 0); !ok || d != 0 {
		t.Errorf("got %d,%v", d, ok)
	}
	if _, ok := BoundedDistance(a, MustPack("ACGTACGA"), 0); ok {
		t.Error("k=0 must behave as exact equality")
	}
	if _, ok := BoundedDistance(a, MustPack("ACG"), 2); ok {
		t.Error("length filter must reject")
	}
}

func TestCorpus(t *testing.T) {
	data := []string{"ACGT", "ACGA", "TTTT", "ACG"}
	c, err := NewCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
	// Word granularity dominates on tiny strings; just check positivity here.
	if r := c.CompressionRatio(); r <= 0 {
		t.Errorf("CompressionRatio = %f", r)
	}
	// At read length ~100 the paper's ~62% saving materializes.
	long, err := NewCorpus([]string{strings.Repeat("ACGTN", 20)})
	if err != nil {
		t.Fatal(err)
	}
	if r := long.CompressionRatio(); r > 0.45 {
		t.Errorf("CompressionRatio at length 100 = %f, want <= 0.45", r)
	}
	ms, err := c.Search("ACGT", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32]int{0: 0, 1: 1, 3: 1}
	if len(ms) != len(want) {
		t.Fatalf("got %v", ms)
	}
	for _, m := range ms {
		if want[m.ID] != m.Dist {
			t.Errorf("match %v", m)
		}
	}
	if _, err := c.Search("XYZ", 1); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := NewCorpus([]string{"OK NO"}); err == nil {
		t.Error("invalid corpus accepted")
	}
}

func TestScratchReuseMatchesFresh(t *testing.T) {
	// One scratch across many pairs must give the same answers as fresh rows:
	// stale row contents beyond the band must never leak into results.
	var scratch Scratch
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			a, b := randomDNA(r, 60), randomDNA(r, 60)
			k := r.Intn(8)
			wd, wok := BoundedDistance(MustPack(a), MustPack(b), k)
			gd, gok := BoundedDistanceScratch(MustPack(a), MustPack(b), k, &scratch)
			if wok != gok || (wok && wd != gd) {
				t.Errorf("scratch reuse diverged on (%q,%q,k=%d)", a, b, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSearchContextCancellation(t *testing.T) {
	data := make([]string, 2048)
	for i := range data {
		data[i] = strings.Repeat("ACGT", 8)
	}
	c, err := NewCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SearchContext(ctx, "ACGTACGT", 2); err == nil {
		t.Error("pre-cancelled context must abort the scan")
	}
	ms, err := c.SearchContext(context.Background(), strings.Repeat("ACGT", 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(data) {
		t.Errorf("got %d matches, want %d", len(ms), len(data))
	}
}

func TestEmptyCorpusRatio(t *testing.T) {
	c, err := NewCorpus(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.CompressionRatio() != 1 {
		t.Errorf("ratio = %f, want 1", c.CompressionRatio())
	}
}
