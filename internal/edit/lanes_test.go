package edit

import (
	"math/rand"
	"strings"
	"testing"
)

// packLanes lays cands out in one buffer the way an arena does, LanePad
// bytes of padding after the last, and returns the batch naming them.
func packLanes(cands []string) ([]byte, *Lanes) {
	var c Lanes
	var buf []byte
	for i, s := range cands {
		c.Off[i], c.Len[i] = len(buf), len(s)
		buf = append(buf, s...)
	}
	return append(buf, make([]byte, LanePad)...), &c
}

// checkLanes holds BoundedLanes on cands to the scalar kernels lane by lane:
// boundedBand where the length filter lets the lane through and
// k <= MaxBandK, boundedMyers otherwise.
func checkLanes(t *testing.T, pattern string, cands []string, k int) {
	t.Helper()
	p := CompileMyers(pattern)
	buf, c := packLanes(cands)
	for i := range c.Dist {
		c.Dist[i] = -7 // a lane the call does not report may keep any value
	}
	for i := len(cands); i < LaneCount; i++ {
		c.Off[i], c.Len[i] = 1<<30, 3 // stale lanes past n, as a reused batch has: never read
	}
	var scratch MyersScratch
	got := p.BoundedLanes(buf, c, len(cands), k, &scratch)
	for i, s := range cands {
		want, ok := boundedMyers(p, s, k, &scratch)
		if d := len(pattern) - len(s); k <= MaxBandK && len(s) > 0 && -k <= d && d <= k && len(pattern) > 0 {
			want, ok = boundedBand(p, s, k)
		}
		if ok != (got>>i&1 != 0) || ok && c.Dist[i] != want {
			t.Fatalf("BoundedLanes(%q, lane %d = %q of %d, k=%d): (%d, %v), the scalar kernel (%d, %v)",
				pattern, i, s, len(cands), k, c.Dist[i], got>>i&1 != 0, want, ok)
		}
	}
	if got>>len(cands) != 0 {
		t.Fatalf("BoundedLanes(%q, %d lanes, k=%d) reports lanes %#x", pattern, len(cands), k, got)
	}
}

var allBytes = func() string {
	var b strings.Builder
	for c := 0; c < 256; c++ {
		b.WriteByte(byte(c))
	}
	return b.String()
}()

// TestBandLanesAgree holds the lane kernel to the band kernel lane by lane,
// on both paths: patterns of every length from 1 to 200 over two, four,
// twenty-six and all 256 byte values, k from 1 to 31, batches of one to
// eight lanes of mixed lengths — mutants of the pattern, which die late or
// not at all, the pattern's prefix up to each column followed by noise,
// which die about k columns past it, noise, and lanes the length filter
// drops — and a batch whose lanes die at every column of the pattern.
func TestBandLanesAgree(t *testing.T) {
	eachLanePath(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(19))
		for _, alphabet := range []string{"ab", "ACGT", "abcdefghijklmnopqrstuvwxyz", allBytes} {
			for m := 1; m <= 200; m++ {
				pattern := exactString(r, m, alphabet)
				for batch := 0; batch < 4; batch++ {
					k := 1 + r.Intn(MaxBandK)
					cands := make([]string, 1+r.Intn(LaneCount))
					for i := range cands {
						switch r.Intn(4) {
						case 0:
							cands[i] = mutate(r, pattern, r.Intn(k+3))
						case 1:
							at := r.Intn(m + 1)
							cands[i] = pattern[:at] + exactString(r, max(0, m-at+r.Intn(2*k+1)-k), alphabet)
						case 2:
							cands[i] = exactString(r, max(0, m+r.Intn(2*k+1)-k), alphabet)
						default:
							cands[i] = exactString(r, r.Intn(m+2*k+2), alphabet)
						}
					}
					checkLanes(t, pattern, cands, k)
				}
			}
		}
		// Lanes dying at every column: lane i keeps the pattern up to column
		// c+i and then reads noise, for every c.
		pattern := exactString(r, 200, "ACGT")
		for _, k := range []int{1, 2, 5, 17, MaxBandK} {
			for c := 0; c < 200; c += LaneCount {
				cands := make([]string, LaneCount)
				for i := range cands {
					cands[i] = pattern[:min(c+i, 200)] + strings.Repeat("N", 200-min(c+i, 200))
				}
				checkLanes(t, pattern, cands, k)
			}
		}
	})
}

// TestBandLanesEdges covers what the lane kernel leaves to the Go side or
// must get right at the edges: empty lanes and patterns, k = 0, k past
// MaxBandK (the blocked kernel, lane by lane), no lane left by the length
// filter, the window crossing words of the table (m = 63, 64, 65, 128),
// and a buffer without its padding, which must panic.
func TestBandLanesEdges(t *testing.T) {
	eachLanePath(t, func(t *testing.T) {
		acgt := func(n int) string { return strings.Repeat("ACGT", n/4+1)[:n] }
		checkLanes(t, "", []string{"", "A", "AC"}, 2)
		checkLanes(t, "AC", []string{"", "A", "AC", "ACGT", "CA"}, 2)
		checkLanes(t, "ACGT", []string{"ACGT", "ACGA", "ACG"}, 0)
		checkLanes(t, acgt(100), []string{acgt(100), acgt(99), acgt(90), acgt(101)}, 40)
		checkLanes(t, acgt(10), []string{"A", acgt(30)}, 3)
		for _, m := range []int{63, 64, 65, 128} {
			for _, k := range []int{1, 8, MaxBandK} {
				cands := []string{acgt(m), acgt(m - 1), acgt(m + k)[k:], acgt(m + k)[:m+k], acgt(m/2) + "TT" + acgt(m)[m/2+2:], strings.Repeat("T", m)}
				checkLanes(t, acgt(m), cands, k)
			}
		}
		// All 256 byte values: no byte is left for the zero row, and the
		// last new one takes it. The scalar kernels share the table, so
		// this case is held to the DP as well.
		pattern := allBytes + allBytes[206:] // the last new byte comes again
		p := CompileMyers(pattern)
		cands := []string{pattern, pattern[1:], pattern[:100] + "x" + pattern[101:], allBytes[50:] + allBytes, pattern[:300],
			pattern[:len(pattern)-1] + "\x00", "\xff" + pattern[1:]} // 0 and 255 swapped in: one substitution each
		checkLanes(t, pattern, cands, 8)
		buf, c := packLanes(cands)
		ok := p.BoundedLanes(buf, c, len(cands), 8, nil)
		for i, s := range cands {
			if d := Distance(pattern, s); (d <= 8) != (ok>>i&1 != 0) || d <= 8 && c.Dist[i] != d {
				t.Errorf("all 256 bytes, lane %d: (%d, %v), the DP %d", i, c.Dist[i], ok>>i&1 != 0, d)
			}
		}
		defer func() {
			if recover() == nil {
				t.Error("BoundedLanes read a lane without its padding and did not panic")
			}
		}()
		CompileMyers("ACGT").BoundedLanes([]byte("ACGT"), &Lanes{Len: [LaneCount]int{4}}, 1, 1, nil)
	})
}

// exactString draws n bytes of alphabet.
func exactString(r *rand.Rand, n int, alphabet string) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// FuzzBandLanes splits text into up to eight lanes at the bytes of cuts and
// holds BoundedLanes on them to the scalar kernels, on both paths.
func FuzzBandLanes(f *testing.F) {
	f.Add("kitten", "sittingkittenkitte", []byte{7, 6, 5}, uint8(3))
	f.Add("ACGTACGTAC", "ACGTACGTACACGTTCGTACNNNNNNNNNNA", []byte{10, 10, 10, 1}, uint8(2))
	f.Add("\x00\xff\x80", "\xff\x00\x80\x00\xff", []byte{3, 2}, uint8(1))
	f.Fuzz(func(t *testing.T, pattern, text string, cuts []byte, kRaw uint8) {
		if len(pattern) > 256 || len(text) > 2048 {
			return
		}
		var cands []string
		for _, c := range cuts {
			if len(cands) == LaneCount {
				break
			}
			n := min(int(c), len(text))
			cands, text = append(cands, text[:n]), text[n:]
		}
		eachLanePath(t, func(t *testing.T) { checkLanes(t, pattern, cands, int(kRaw%40)) })
	})
}
