package cascade

import (
	"fmt"
	"strings"
	"testing"

	"simsearch/internal/dataset"
	"simsearch/internal/edit"
)

// TestKindSelection: the word holds symbol counts exactly when every byte of
// the arena is a DNA symbol; one stray byte anywhere selects occurrence bits.
func TestKindSelection(t *testing.T) {
	reads := dataset.DNAReads(50, 3)
	stray := func(at int, b byte) []string {
		out := append([]string(nil), reads...)
		out[at] = out[at][:7] + string(b) + out[at][7:]
		return out
	}
	for _, tc := range []struct {
		name string
		data []string
		want string
	}{
		{"all-DNA", []string{"ACGT", "TTNN", ""}, "cascade/dna"},
		{"reads", reads, "cascade/dna"},
		{"empty corpus", nil, "cascade/dna"},
		{"mixed", []string{"ACGT", "Berlin"}, "cascade/bytes"},
		{"stray byte in the first read", stray(0, 'a'), "cascade/bytes"},
		{"stray byte in the last read", stray(len(reads)-1, 0xc3), "cascade/bytes"},
		{"lower-case read", []string{"ACGT", "acgt"}, "cascade/bytes"},
	} {
		e := New(tc.data)
		if e.Name() != tc.want || e.words.Counts() != (tc.want == "cascade/dna") {
			t.Errorf("%s: %s (counts=%v), want %s", tc.name, e.Name(), e.words.Counts(), tc.want)
		}
	}
	if got := New(nil, WithoutFrequency()).Name(); got != "cascade/dna-nofreq" {
		t.Errorf("ablation name = %q", got)
	}
	if got := New([]string{"x"}, WithoutFrequency()).Name(); got != "cascade/bytes-nofreq" {
		t.Errorf("ablation name = %q", got)
	}
}

// TestByteStatsFunnel pins the five counts on both kinds of word: the length
// windows' slots (Candidates, which no filter behind the length bucket may
// shrink: it is what every pass ratio is taken of), the slots in blocks the
// summaries let the sweep into, the first word's survivors, the kernel calls,
// the matches. The signature stage prunes — on reads in two steps, the second
// word taking away from what the first let through; on city names there is
// one word and the two counts agree — and without it every candidate of the
// same length windows is swept and passes through to the same matches.
func TestByteStatsFunnel(t *testing.T) {
	for name, data := range map[string][]string{
		"city": dataset.Cities(3000, 7), "reads": dataset.DNAReads(1500, 7),
	} {
		e, bare := New(data), New(data, WithoutFrequency())
		var windows uint64 // the slots of the queries' length windows, counted from the data
		for i, q := range dataset.Queries(data, 40, 3, 8) {
			k := i % 4
			e.Search(q, k)
			bare.Search(q, k)
			for _, s := range data {
				if len(s) >= len(q)-k && len(s) <= len(q)+k {
					windows++
				}
			}
		}
		st, bs := e.Stats(), bare.Stats()
		if st.Candidates != windows {
			t.Errorf("%s: %d candidates, but the length windows hold %d slots", name, st.Candidates, windows)
		}
		if st.Swept >= st.Candidates || st.Passed >= st.Swept || st.Survivors > st.Passed ||
			st.Matches > st.Survivors || st.Matches != bs.Matches {
			t.Errorf("%s funnel: %+v", name, st)
		}
		if second := name == "reads"; second != (st.Survivors < st.Passed) {
			t.Errorf("%s: second word pruned = %v, want %v: %+v", name, !second, second, st)
		}
		if bs.Survivors != bs.Candidates || bs.Passed != bs.Candidates || bs.Swept != bs.Candidates || bs.Candidates != st.Candidates {
			t.Errorf("%s: WithoutFrequency must pass every candidate through: %+v", name, bs)
		}
	}
}

// TestBlockSummaryStrength pins what the order inside a length bucket is
// for: on 20,000 generated city names at k = 1 the summaries let the sweep
// into at most a quarter of the window. Generated names, the order and the
// summaries are deterministic, so the counts repeat exactly.
func TestBlockSummaryStrength(t *testing.T) {
	data := dataset.Cities(20000, 7)
	e := New(data)
	for _, q := range dataset.Queries(data, 200, 1, 8) {
		e.Search(q, 1)
	}
	st := e.Stats()
	t.Logf("%d window slots, %d swept (1/%.2f), %d past the word", st.Candidates, st.Swept, float64(st.Candidates)/float64(st.Swept), st.Passed)
	if st.Swept == 0 || 4*st.Swept > st.Candidates {
		t.Errorf("the summaries let the sweep into %d of %d window slots, want at most a quarter", st.Swept, st.Candidates)
	}
}

// TestByteQueryAllocations: a cascade query allocates its result slice and,
// at k > 0, its compiled pattern with the kernel's scratch header; nothing
// per candidate, on either kind of word.
func TestByteQueryAllocations(t *testing.T) {
	for name, data := range map[string][]string{
		"city": dataset.Cities(5000, 9), "reads": dataset.DNAReads(2000, 9),
	} {
		e := New(data)
		hit := data[0]
		miss := strings.Repeat("\x7f", len(hit)) // a full length window, no survivor
		for k := 0; k <= 3; k++ {
			if len(e.Search(hit, k)) == 0 || len(e.Search(miss, k)) != 0 {
				t.Fatalf("%s k=%d: %q must match itself and %q nothing", name, k, hit, miss)
			}
			for _, q := range []string{hit, miss} {
				want := 1.0
				if k > 0 {
					want += 1 + testing.AllocsPerRun(100, func() { edit.CompileMyers(q) })
				}
				if m := len(e.Search(q, k)); m > 1 {
					// Few matches, in word order inside a bucket, are sorted in
					// place; long ID-ascending runs would be merged through
					// one buffer and one slice of run starts.
					want += 2
				}
				if got := testing.AllocsPerRun(100, func() { e.Search(q, k) }); got > want {
					t.Errorf("%s: Search(%q,%d): %.0f allocations, want at most %.0f", name, q, k, got, want)
				}
			}
		}
	}
}

// BenchmarkCascadeBytes sweeps 100,000 generated cities at k = 0..3 and
// 10,000 generated reads at k = 0, 4, 8 and reports what the signature stage
// costs per slot of the length window, how many block summaries a query is
// held against (a sixteenth of the window), how many words it then reads
// (the slots of the blocks it enters), how many candidates its first word
// lets through and how many it leaves for the kernel.
func BenchmarkCascadeBytes(b *testing.B) {
	for _, c := range []struct {
		name string
		data []string
		ks   []int
	}{
		{"city", dataset.Cities(100000, 20130322), []int{0, 1, 2, 3}},
		{"reads", dataset.DNAReads(10000, 20130322), []int{0, 4, 8}},
	} {
		e := New(c.data)
		for _, k := range c.ks {
			qs := dataset.Queries(c.data, 300, k, 20130322+int64(k))
			b.Run(fmt.Sprintf("%s/k%d", c.name, k), func(b *testing.B) {
				before := e.Stats()
				matches := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					matches += len(e.Search(qs[i%len(qs)], k))
				}
				st := e.Stats()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Candidates-before.Candidates), "ns/slot")
				b.ReportMetric(float64(st.Candidates-before.Candidates)/16/float64(b.N), "blocks/query")
				b.ReportMetric(float64(st.Swept-before.Swept)/float64(b.N), "swept/query")
				b.ReportMetric(float64(st.Passed-before.Passed)/float64(b.N), "first_stage/query")
				b.ReportMetric(float64(st.Survivors-before.Survivors)/float64(b.N), "survivors/query")
				if matches < b.N {
					b.Fatalf("the query itself must match: %d matches in %d queries", matches, b.N)
				}
			})
		}
	}
}
