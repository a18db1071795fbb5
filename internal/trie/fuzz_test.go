package trie

import (
	"strings"
	"testing"
)

// FuzzTrieAgrees builds four trees over fuzzed newline-joined data — the
// modern and the paper descent, each on a compressed and on a plain packed
// tree — and checks every answer against the DP oracle. k runs over 0..40,
// across the band kernel's last threshold (31) and the paper rows the
// modern tree descends with above it.
func FuzzTrieAgrees(f *testing.F) {
	acgt := func(n int) string { return strings.Repeat("ACGT", n/4+1)[:n] }
	f.Add("Berlin\nBern\nUlm\nBonn", "Bern", uint8(1))
	f.Add("ulm\nulm\n\nulmen\nu\n", "ulm", uint8(2))
	f.Add("\n\nx", "", uint8(0))
	// The only live target diagonal lies above row 0: after "a" the one
	// string below needs three more bytes, D[-2][1] = 3.
	f.Add("abbb", "a", uint8(3))
	f.Add("xyzzy\nab", "", uint8(5))
	// Lengths at both ends of the target window [m-k, m+k].
	f.Add("abcd\nabcdefgh\nabcdefghijkl", "abcdefgh", uint8(4))
	for _, k := range []uint8{8, 30, 31, 32, 33, 40} {
		read := acgt(100)
		f.Add(read+"\n"+read[3:]+"T\n"+read[:100-int(k)]+"\n"+acgt(104)[4:], read, k)
		f.Add(read[:50]+"\n"+read+"GATTACA\n"+strings.Repeat("T", 100), read[:60], k)
	}
	f.Fuzz(func(t *testing.T, data, q string, kRaw uint8) {
		if len(q) > 200 || len(data) > 4096 {
			return
		}
		k := int(kRaw % 41)
		strs := strings.Split(data, "\n")
		want := scanRef(strs, q, k)
		for _, modern := range []bool{false, true} {
			var opts []Option
			if modern {
				opts = append(opts, WithModernPruning())
			}
			for _, compress := range []bool{false, true} {
				tr := Build(strs, opts...)
				if compress {
					tr.Compress()
				} else {
					tr.Pack()
				}
				if got := tr.Search(q, k); !equalMatches(got, want) {
					t.Fatalf("modern=%v compress=%v: Search(%q, %d) = %v, want %v", modern, compress, q, k, got, want)
				}
			}
		}
	})
}
