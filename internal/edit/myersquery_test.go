package edit

import (
	"math/rand"
	"strings"
	"testing"
)

func TestCompileMyersMatchesDistance(t *testing.T) {
	cases := [][2]string{
		{"", ""}, {"", "abc"}, {"abc", ""},
		{"kitten", "sitting"}, {"berlin", "bern"},
		{"AGGCGT", "AGAGT"},
		{strings.Repeat("ab", 40), strings.Repeat("ba", 41)}, // pattern > 64: blocked kernel
		{strings.Repeat("A", 64), strings.Repeat("A", 64)},   // exactly one word
		{strings.Repeat("A", 65), strings.Repeat("C", 130)},  // just over one word
		{strings.Repeat("x", 200), strings.Repeat("x", 3)},   // long pattern, short text
		{"käse", "kase"}, // multi-byte UTF-8 treated as bytes
	}
	var scratch MyersScratch
	for _, c := range cases {
		want := Distance(c[0], c[1])
		p := CompileMyers(c[0])
		if got := p.Distance(c[1], &scratch); got != want {
			t.Errorf("CompileMyers(%q).Distance(%q) = %d, want %d", c[0], c[1], got, want)
		}
		for k := 0; k <= want+2; k++ {
			d, ok := p.BoundedDistance(c[1], k, &scratch)
			if ok != (want <= k) {
				t.Errorf("BoundedDistance(%q, %q, %d): ok=%v, distance %d", c[0], c[1], k, ok, want)
			}
			if ok && d != want {
				t.Errorf("BoundedDistance(%q, %q, %d) = %d, want %d", c[0], c[1], k, d, want)
			}
		}
	}
}

func TestBoundedDistanceNegativeK(t *testing.T) {
	p := CompileMyers("abc")
	if _, ok := p.BoundedDistance("abc", -1, nil); ok {
		t.Error("k=-1 accepted")
	}
}

func TestCompileMyersAccessors(t *testing.T) {
	p := CompileMyers("berlin")
	if p.Len() != 6 || p.Text() != "berlin" {
		t.Errorf("Len=%d Text=%q", p.Len(), p.Text())
	}
}

func TestCompiledPatternSharedAcrossGoroutines(t *testing.T) {
	// One compiled pattern, many goroutines, per-goroutine scratch: results
	// must match the serial oracle (run under -race in CI).
	texts := make([]string, 200)
	r := rand.New(rand.NewSource(7))
	const alphabet = "abcdefgh"
	for i := range texts {
		n := r.Intn(100)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		texts[i] = sb.String()
	}
	for _, pattern := range []string{"abcdefgh", strings.Repeat("abcd", 20)} {
		p := CompileMyers(pattern)
		want := make([]int, len(texts))
		for i, s := range texts {
			want[i] = Distance(pattern, s)
		}
		done := make(chan error, 4)
		for g := 0; g < 4; g++ {
			go func() {
				var scratch MyersScratch
				for i, s := range texts {
					if got := p.Distance(s, &scratch); got != want[i] {
						done <- &compileRaceErr{s: s, got: got, want: want[i]}
						return
					}
				}
				done <- nil
			}()
		}
		for g := 0; g < 4; g++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}

type compileRaceErr struct {
	s         string
	got, want int
}

func (e *compileRaceErr) Error() string {
	return "shared pattern diverged on " + e.s
}

func BenchmarkPerPairVsCompiled(b *testing.B) {
	// The amortization the BitParallel rung is built on: MyersDistance
	// rebuilds the peq table per pair, the compiled pattern builds it once.
	texts := make([]string, 1024)
	r := rand.New(rand.NewSource(11))
	for i := range texts {
		n := 4 + r.Intn(12)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(byte('a' + r.Intn(26)))
		}
		texts[i] = sb.String()
	}
	const q = "heidelberg"
	b.Run("per-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MyersDistance(q, texts[i%len(texts)])
		}
	})
	b.Run("compiled", func(b *testing.B) {
		p := CompileMyers(q)
		for i := 0; i < b.N; i++ {
			p.Distance(texts[i%len(texts)], nil)
		}
	})
	b.Run("compiled-bounded", func(b *testing.B) {
		p := CompileMyers(q)
		for i := 0; i < b.N; i++ {
			p.BoundedDistance(texts[i%len(texts)], 2, nil)
		}
	})
}

// BenchmarkBoundedKernels times both bounded kernels behind
// BoundedDistanceBytes over candidates no more related to the query than
// two reads of one genome are: 100-letter reads at k = 0, 8, 31 (band) and
// k = 32 (blocked), and 10-letter names at k = 2. The threshold alone picks
// the kernel.
func BenchmarkBoundedKernels(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	random := func(n, length int, alphabet string) [][]byte {
		buf := make([]byte, n*length)
		out := make([][]byte, n)
		for i := range buf {
			buf[i] = alphabet[r.Intn(len(alphabet))]
		}
		for i := range out {
			out[i] = buf[i*length : (i+1)*length]
		}
		return out
	}
	reads := random(1024, 100, "ACGT")
	names := random(1024, 10, "abcdefghijklmnopqrstuvwxyz")
	for _, c := range []struct {
		name  string
		cands [][]byte
		k     int
	}{
		{"reads100/k0-band", reads, 0},
		{"reads100/k8-band", reads, 8},
		{"reads100/k31-band", reads, 31},
		{"reads100/k32-blocked", reads, 32},
		{"names10/k2-band", names, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := CompileMyers(string(c.cands[0]))
			var scratch MyersScratch
			matches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range c.cands {
					if _, ok := p.BoundedDistanceBytes(s, c.k, &scratch); ok {
						matches++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.cands)), "ns/cmp")
			if matches < b.N {
				b.Fatalf("the query itself must match: %d matches in %d rounds", matches, b.N)
			}
		})
	}
}
