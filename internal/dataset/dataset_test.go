package dataset

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"simsearch/internal/edit"
)

func TestCitiesDeterministic(t *testing.T) {
	a := Cities(500, 42)
	b := Cities(500, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different datasets")
	}
	c := Cities(500, 43)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestCitiesProfileMatchesTableI(t *testing.T) {
	data := Cities(20000, 1)
	info := Stats(data)
	if info.Count != 20000 {
		t.Errorf("Count = %d", info.Count)
	}
	if info.MaxLen > maxCityLen {
		t.Errorf("MaxLen = %d exceeds cap %d", info.MaxLen, maxCityLen)
	}
	if info.MinLen < 1 {
		t.Errorf("MinLen = %d, want >= 1", info.MinLen)
	}
	// Table I: "ca. 255 symbols". The synthetic mixture must produce a
	// large byte alphabet — well beyond ASCII.
	if info.Symbols < 150 {
		t.Errorf("Symbols = %d, want a large (>=150) byte alphabet", info.Symbols)
	}
	// Names must be newline-free and valid for the line-based file format.
	for _, s := range data[:1000] {
		if strings.ContainsAny(s, "\n\r") {
			t.Fatalf("name contains newline: %q", s)
		}
	}
}

func TestCitiesValidUTF8(t *testing.T) {
	// Truncation must never split a multi-byte sequence.
	for _, s := range Cities(5000, 7) {
		if !utf8.ValidString(s) {
			t.Fatalf("invalid UTF-8 after truncation: %q", s)
		}
	}
}

func TestCitiesSharePrefixes(t *testing.T) {
	// Gazetteer-like data must have substantial prefix sharing for the trie
	// to be meaningful: distinct first-4-byte prefixes must be far fewer
	// than names.
	data := Cities(10000, 3)
	prefixes := map[string]bool{}
	for _, s := range data {
		p := s
		if len(p) > 4 {
			p = p[:4]
		}
		prefixes[p] = true
	}
	if len(prefixes) > len(data)/4 {
		t.Errorf("prefix sharing too weak: %d distinct prefixes for %d names",
			len(prefixes), len(data))
	}
}

func TestTruncateUTF8(t *testing.T) {
	s := "abcé" // é is 2 bytes, total 5
	if got := truncateUTF8(s, 4); got != "abc" {
		t.Errorf("truncateUTF8 = %q, want %q", got, "abc")
	}
	if got := truncateUTF8(s, 5); got != s {
		t.Errorf("truncateUTF8 at full length = %q", got)
	}
	if got := truncateUTF8("日本語", 4); got != "日" {
		t.Errorf("truncateUTF8 = %q, want single rune", got)
	}
}

func TestGenomeProperties(t *testing.T) {
	g := newGenome(50000, 9)
	if len(g) != 50000 {
		t.Fatalf("len = %d", len(g))
	}
	var counts [256]int
	for i := 0; i < len(g); i++ {
		counts[g[i]]++
	}
	for _, c := range []byte("ACGT") {
		if counts[c] == 0 {
			t.Errorf("base %c never occurs", c)
		}
	}
	total := counts['A'] + counts['C'] + counts['G'] + counts['T'] + counts['N']
	if total != len(g) {
		t.Errorf("genome contains %d non-ACGNT bytes", len(g)-total)
	}
	if counts['N'] == 0 {
		t.Error("no N runs generated in 50k bases")
	}
	if counts['N'] > len(g)/100 {
		t.Errorf("N too frequent: %d", counts['N'])
	}
}

func TestDNAReadsProfileMatchesTableI(t *testing.T) {
	reads := DNAReads(5000, 11)
	info := Stats(reads)
	if info.Count != 5000 {
		t.Errorf("Count = %d", info.Count)
	}
	if info.Symbols > 5 {
		t.Errorf("Symbols = %d, want <= 5 (ACGNT)", info.Symbols)
	}
	// "ca. 100": indels jitter the length slightly.
	if info.MinLen < readLen-8 || info.MaxLen > readLen+8 {
		t.Errorf("length range [%d, %d] too far from %d", info.MinLen, info.MaxLen, readLen)
	}
	if info.AvgLen < readLen-2 || info.AvgLen > readLen+2 {
		t.Errorf("AvgLen = %f", info.AvgLen)
	}
}

func TestDNAReadsOverlap(t *testing.T) {
	// ~20x coverage means many reads overlap heavily; at least some pairs
	// must be within a small edit distance.
	reads := DNAReads(2000, 13)
	near := 0
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			if _, ok := edit.BoundedDistance(reads[i], reads[j], 16); ok {
				near++
			}
		}
	}
	if near == 0 {
		t.Error("no overlapping reads within k=16 among 200 samples; coverage model broken")
	}
}

func TestQueriesWithinMaxEdits(t *testing.T) {
	data := Cities(2000, 17)
	qs := Queries(data, 100, 3, 19)
	if len(qs) != 100 {
		t.Fatalf("got %d queries", len(qs))
	}
	// Every query must be within 3 edits of SOME dataset string.
	for _, q := range qs {
		ok := false
		for _, s := range data {
			if _, within := edit.BoundedDistance(q, s, 3); within {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("query %q is not within 3 edits of any dataset string", q)
		}
	}
}

func TestQueriesZipfSkew(t *testing.T) {
	data := Cities(5000, 41)
	qs := QueriesZipf(data, 2000, 0, 1.5, 43) // no edits: queries are dataset strings
	if len(qs) != 2000 {
		t.Fatalf("got %d queries", len(qs))
	}
	counts := map[string]int{}
	for _, q := range qs {
		counts[q]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Under uniform sampling of 5000 strings the max multiplicity of 2000
	// draws would be tiny; Zipf must concentrate mass on the head.
	if max < 20 {
		t.Errorf("max multiplicity %d; workload not skewed", max)
	}
	// Degenerate exponent falls back safely.
	if got := QueriesZipf(data, 10, 1, 0.5, 47); len(got) != 10 {
		t.Errorf("fallback exponent: %d queries", len(got))
	}
}

func TestMutateExactEdits(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		s := Cities(1, seed&0x7fffffff)[0]
		n := rr.Intn(4)
		m := mutate(rr, s, n, "abcXYZ")
		return edit.Distance(s, m) <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
	// Empty alphabet falls back safely.
	if got := mutate(r, "abc", 1, ""); got == "" && len("abc") > 1 {
		t.Log("mutation emptied the string; acceptable for delete ops")
	}
}

func TestStatsEmpty(t *testing.T) {
	info := Stats(nil)
	if info.Count != 0 || info.Symbols != 0 || info.AvgLen != 0 {
		t.Errorf("empty stats = %+v", info)
	}
	if info.String() == "" {
		t.Error("String() empty")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.txt")
	data := append(Cities(300, 29), "", "trailing")
	if err := Save(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, data) {
		t.Errorf("round trip mismatch: %d vs %d strings", len(got), len(data))
	}
}

func TestSaveRejectsNewlines(t *testing.T) {
	dir := t.TempDir()
	if err := Save(filepath.Join(dir, "bad.txt"), []string{"a\nb"}); err == nil {
		t.Error("Save accepted embedded newline")
	}
}

func TestSaveToUnwritablePath(t *testing.T) {
	if err := Save("/nonexistent-dir/f.txt", []string{"a"}); err == nil {
		t.Error("Save to unwritable path did not fail")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/nope.txt"); err == nil {
		t.Error("Load of missing file did not fail")
	}
}
