package cascade

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"simsearch/internal/dataset"
	"simsearch/internal/edit"
	"simsearch/internal/scan"
)

// editAlphabet is what the property test's edits draw from: letters, DNA,
// bytes >= 0x80, and bytes that collide under & 31 ('a', 'A', '!', 0x81 and
// 0xe1 all land in bucket 1; 't', 'T', 0xf4 in bucket 20).
const editAlphabet = "aA!\x81\xe1tT\xf4 -enrsACGNT\xc3\xbc\xff\x00"

// mutate applies n random single-byte edits to s.
func mutate(r *rand.Rand, s string, n int) string {
	b := []byte(s)
	for ; n > 0; n-- {
		c := editAlphabet[r.Intn(len(editAlphabet))]
		switch op := r.Intn(3); {
		case op == 0 || len(b) == 0: // insert
			i := r.Intn(len(b) + 1)
			b = append(b[:i], append([]byte{c}, b[i:]...)...)
		case op == 1: // delete
			i := r.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		default: // substitute
			b[r.Intn(len(b))] = c
		}
	}
	return string(b)
}

// TestSignatureNeverRejectsWithinK is the soundness property: a pair built by
// at most k edits is never rejected at threshold k, on city-like and
// DNA-like strings, non-UTF-8 bytes and bucket collisions included.
func TestSignatureNeverRejectsWithinK(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	bases := append(dataset.Cities(300, 18), dataset.DNAReads(100, 18)...)
	bases = append(bases, "", "a", "\xff\xff\xff", strings.Repeat("aA", 40))
	for round := 0; round < 40; round++ {
		for _, base := range bases {
			k := r.Intn(9)
			a := mutate(r, base, r.Intn(3)) // the stored string need not be clean either
			b := mutate(r, a, r.Intn(k+1))
			if sigReject(signature(a), signature([]byte(b)), k) {
				t.Fatalf("%q and %q are within %d edits (distance %d) but their signatures %#x, %#x are rejected",
					a, b, k, edit.Distance(a, b), signature(a), signature(b))
			}
		}
	}
}

// TestSignatureExhaustiveSmallAlphabet checks every pair of strings up to
// length 5 over {a, A, b} — 'a' and 'A' share bucket 1, so the fold and the
// saturating count are both exercised — at the pair's exact distance, the
// tightest threshold that must still admit it.
func TestSignatureExhaustiveSmallAlphabet(t *testing.T) {
	all := []string{""}
	for lo := 0; len(all[lo]) < 5; lo++ {
		for _, c := range "aAb" {
			all = append(all, all[lo]+string(c))
		}
	}
	if len(all) != 364 {
		t.Fatalf("enumerated %d strings, want 364", len(all))
	}
	rejected := 0
	for _, a := range all {
		sa := signature(a)
		for _, b := range all {
			sb, d := signature(b), edit.Distance(a, b)
			if sigReject(sa, sb, d) {
				t.Fatalf("%q, %q at distance %d are rejected at k=%d (%#x, %#x)", a, b, d, d, sa, sb)
			}
			if d > 0 && sigReject(sa, sb, d-1) {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Error("the signature rejected no pair one threshold below its distance: the filter is vacuous")
	}
}

// TestNewOverSharesArena: the byte backend built over a caller's arena
// answers like one that packed its own, with the caller's IDs.
func TestNewOverSharesArena(t *testing.T) {
	data := append(dataset.Cities(2000, 5), "", "\xff\xfe", strings.Repeat("x", 70))
	ar := scan.NewArena(data)
	over, own := NewOver(ar), New(data)
	if over.Name() != "cascade/bytes" || own.Name() != "cascade/bytes" || over.Len() != len(data) {
		t.Fatalf("names %q, %q, len %d", over.Name(), own.Name(), over.Len())
	}
	if over.bytes.ar != ar {
		t.Fatal("NewOver copied the arena")
	}
	for i, q := range dataset.Queries(data, 60, 3, 6) {
		k := i % 4
		want := oracle(data, q, k)
		if got := over.Search(q, k); !equal(got, want) {
			t.Fatalf("NewOver.Search(%q,%d) = %v, want %v", q, k, got, want)
		}
		if got := own.Search(q, k); !equal(got, want) {
			t.Fatalf("New.Search(%q,%d) = %v, want %v", q, k, got, want)
		}
	}
}

// TestByteStatsFunnel pins the byte backend's counters: one filter stage, so
// signature survivors and verify calls are the same number, and it prunes.
func TestByteStatsFunnel(t *testing.T) {
	data := dataset.Cities(3000, 7)
	e, bare := New(data), New(data, WithoutFrequency())
	for i, q := range dataset.Queries(data, 40, 3, 8) {
		e.Search(q, i%4)
		bare.Search(q, i%4)
	}
	st, bs := e.Stats(), bare.Stats()
	if st.Packed || st.Candidates == 0 || st.FreqSurvivors >= st.Candidates ||
		st.QGramSurvivors != st.FreqSurvivors || st.Matches > st.QGramSurvivors || st.Matches != bs.Matches {
		t.Errorf("byte funnel: %+v", st)
	}
	if bs.FreqSurvivors != bs.Candidates || bs.Candidates != st.Candidates {
		t.Errorf("WithoutFrequency must pass every candidate through: %+v", bs)
	}
}

// TestByteQueryAllocations: a byte-cascade query allocates its result slice
// and, at k > 0, its compiled pattern with the kernel's scratch header;
// nothing per candidate.
func TestByteQueryAllocations(t *testing.T) {
	data := dataset.Cities(5000, 9)
	e := New(data)
	hit := data[0]
	miss := strings.Repeat("\x7f", len(hit)) // a full length window, no survivor
	for k := 0; k <= 3; k++ {
		if len(e.Search(hit, k)) == 0 || len(e.Search(miss, k)) != 0 {
			t.Fatalf("k=%d: %q must match itself and %q nothing", k, hit, miss)
		}
		for _, q := range []string{hit, miss} {
			want := 1.0
			if k > 0 {
				want += 1 + testing.AllocsPerRun(100, func() { edit.CompileMyers(q) })
			}
			if q == hit {
				want += 2 // matches in several length buckets are merged through two buffers
			}
			if got := testing.AllocsPerRun(100, func() { e.Search(q, k) }); got > want {
				t.Errorf("Search(%q,%d): %.0f allocations, want at most %.0f", q, k, got, want)
			}
		}
	}
}

// BenchmarkCascadeBytes sweeps 100,000 generated cities at k = 0..3 and
// reports what the signature stage costs per slot of the length window and
// how many candidates per query it leaves for the kernel.
func BenchmarkCascadeBytes(b *testing.B) {
	data := dataset.Cities(100000, 20130322)
	e := New(data)
	for k := 0; k <= 3; k++ {
		qs := dataset.Queries(data, 300, k, 20130322+int64(k))
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			before := e.Stats()
			matches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matches += len(e.Search(qs[i%len(qs)], k))
			}
			st := e.Stats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Candidates-before.Candidates), "ns/slot")
			b.ReportMetric(float64(st.QGramSurvivors-before.QGramSurvivors)/float64(b.N), "survivors/query")
			if matches < b.N {
				b.Fatalf("the query itself must match: %d matches in %d queries", matches, b.N)
			}
		})
	}
}
