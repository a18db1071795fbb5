package edit

import (
	"math/bits"
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
		if got, ok := p.BoundedDistanceBytes([]byte(c[1]), len(c[0])+len(c[1]), &scratch); !ok || got != want {
			t.Errorf("CompileMyers(%q).BoundedDistanceBytes(%q) at k = m+n: %d, %v, want %d", c[0], c[1], got, ok, want)
		}
		for k := 0; k <= want+2; k++ {
			d, ok := p.BoundedDistanceBytes([]byte(c[1]), k, &scratch)
			if ok != (want <= k) {
				t.Errorf("BoundedDistanceBytes(%q, %q, %d): ok=%v, distance %d", c[0], c[1], k, ok, want)
			}
			if ok && d != want {
				t.Errorf("BoundedDistanceBytes(%q, %q, %d) = %d, want %d", c[0], c[1], k, d, want)
			}
		}
	}
}

func TestBoundedDistanceNegativeK(t *testing.T) {
	p := CompileMyers("abc")
	if _, ok := p.BoundedDistanceBytes([]byte("abc"), -1, nil); ok {
		t.Error("k=-1 accepted")
	}
}

func TestCompileMyersAccessors(t *testing.T) {
	p := CompileMyers("berlin")
	if p.Len() != 6 {
		t.Errorf("Len=%d", p.Len())
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
					if got, _ := p.BoundedDistanceBytes([]byte(s), len(pattern)+len(s), &scratch); got != want[i] {
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

// BenchmarkCompiledMyers times the compiled pattern over names, unbounded
// (k = m+n, where the bound never fires) and bounded at k = 2: the table is
// built once, outside the loop.
func BenchmarkCompiledMyers(b *testing.B) {
	texts := make([][]byte, 1024)
	r := rand.New(rand.NewSource(11))
	for i := range texts {
		texts[i] = make([]byte, 4+r.Intn(12))
		for j := range texts[i] {
			texts[i][j] = byte('a' + r.Intn(26))
		}
	}
	const q = "heidelberg"
	b.Run("compiled", func(b *testing.B) {
		p := CompileMyers(q)
		for i := 0; i < b.N; i++ {
			s := texts[i%len(texts)]
			p.BoundedDistanceBytes(s, len(q)+len(s), nil)
		}
	})
	b.Run("compiled-bounded", func(b *testing.B) {
		p := CompileMyers(q)
		for i := 0; i < b.N; i++ {
			p.BoundedDistanceBytes(texts[i%len(texts)], 2, nil)
		}
	})
}

// BenchmarkBoundedKernels times both bounded kernels behind
// BoundedDistanceBytes over candidates no more related to the query than
// two reads of one genome are: 100-letter reads at k = 0, 8, 16, 31 (band)
// and k = 32 (blocked), and 10-letter names at k = 2 and 3. The threshold
// alone picks the kernel. The -lanes cells hand the same candidates to
// BoundedLanes eight at a time, packed in one buffer as an arena packs
// them: the lane kernel where the CPU has AVX-512, the band kernel lane by
// lane elsewhere. Every cell reports ns per candidate.
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
		lanes bool
	}{
		{"reads100/k0-band", reads, 0, false},
		{"reads100/k8-band", reads, 8, false},
		{"reads100/k8-lanes", reads, 8, true},
		{"reads100/k16-band", reads, 16, false},
		{"reads100/k16-lanes", reads, 16, true},
		{"reads100/k31-band", reads, 31, false},
		{"reads100/k32-blocked", reads, 32, false},
		{"names10/k2-band", names, 2, false},
		{"names10/k3-band", names, 3, false},
		{"names10/k3-lanes", names, 3, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := CompileMyers(string(c.cands[0]))
			var scratch MyersScratch
			var buf []byte // the candidates packed, for the -lanes cells
			for _, s := range c.cands {
				buf = append(buf, s...)
			}
			buf = append(buf, make([]byte, LanePad)...)
			var batch Lanes
			matches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !c.lanes {
					for _, s := range c.cands {
						if _, ok := p.BoundedDistanceBytes(s, c.k, &scratch); ok {
							matches++
						}
					}
					continue
				}
				for at := 0; at < len(c.cands); at += LaneCount {
					n := min(LaneCount, len(c.cands)-at)
					for j := 0; j < n; j++ {
						batch.Off[j], batch.Len[j] = (at+j)*len(c.cands[0]), len(c.cands[0])
					}
					matches += bits.OnesCount8(p.BoundedLanes(buf, &batch, n, c.k, &scratch))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.cands)), "ns/cmp")
			if matches < b.N {
				b.Fatalf("the query itself must match: %d matches in %d rounds", matches, b.N)
			}
		})
	}
}
