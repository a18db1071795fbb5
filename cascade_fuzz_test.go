package simsearch_test

import (
	"strings"
	"testing"

	"simsearch"
)

// FuzzCascadeIdentical is the cascade acceptance harness: on fuzz-generated
// datasets over both of the paper's alphabets, the filter cascade must
// return byte-identical results to the DP scan — and to the bit-parallel
// scan — on every engine path: direct, sharded, and cached. The seeds
// deliberately include very short strings, duplicates, k=0, and non-ASCII
// bytes (which select the occurrence-bit word and land in signature buckets
// shared with ASCII letters).
func FuzzCascadeIdentical(f *testing.F) {
	cities := simsearch.GenerateCities(12, 7)
	reads := simsearch.GenerateDNAReads(6, 7)
	f.Add(strings.Join(cities, "\n"), cities[0], 2)
	f.Add(strings.Join(reads, "\n"), reads[0], 3)
	f.Add(strings.Join(reads, "\n"), reads[0], 8) // count words, >64-byte strings
	f.Add("A\nAC\nACG\nACGT", "ACX", 1)           // a query byte no field counts
	f.Add("a\nab\nabc\nabcd", "abx", 1)
	f.Add("dup\ndup\ndup", "dup", 0) // k=0 exact lookup
	f.Add("", "anything", 3)
	f.Add("café\nnaïve", "cafe", 2)
	f.Add(strings.Join(cities, "\n"), "", 16) // empty query, permissive k
	// The byte backend's signature: non-UTF-8 bytes, bytes that share a
	// bucket under & 31 ('a', 'A', '!', 0x81), k = 0 on both sides of a
	// match, and a query longer than every stored string.
	f.Add("\xff\xfe\x80\naA!\x81\na\xe1\xc1", "\xff\xfe\x81", 1)
	f.Add("aA!\x81\nAa!\x81\naa!!", "aA!\x81", 0)
	f.Add("Aachen\naachen\nAAchen", "aachen", 0)
	f.Add("ab\nabc\n\xc3\xbc", "abcdefghijklmnopqrstuvwxyz", 3)
	// The count word: reads with N, an anagram pair at k = 0 (equal words,
	// different bytes), a non-DNA query on a DNA corpus, and length
	// differences of exactly k on both sides.
	f.Add("ACGTNNACGT\nACGTNACGT\nNNNN\nACGTACGT", "ACGTNNACGA", 2)
	f.Add("ACGT\nTGCA\nGATC\nACGT", "TGCA", 0)
	f.Add(strings.Join(reads, "\n"), "caf\xc3\xa9 \x80\xff"+reads[1][10:], 16)
	f.Add("ACGTACGT\nACGTA\nACGTACGTACG\nACG", "ACGTACGT", 3)
	// The gram word behind it: a homopolymer run that saturates AA on both
	// sides, an anagram only the pair counts tell apart, N and uncounted
	// query bytes between every pair, strings of length 0 and 1, and reads
	// past 240 letters with all sixteen fields saturated.
	run, cycle := strings.Repeat("A", 24), strings.Repeat("AACAGATCCGCTGGTT", 16)
	f.Add(run+"CGT\n"+run[:20]+"CGTAAAA\nCGT"+run, "TTTT"+run[:20]+"CGT", 4)
	f.Add("AACCGGTT\nACGTACGT\nTTGGCCAA", "ACGTACGT", 1)
	f.Add("ANCNGNTN\nACGT\nNNNN\nACNGT", "AxCxGxTx", 4)
	f.Add("\nA\nC\nAC\nN", "", 1)
	f.Add("\nA\nC\nAC\nN", "A", 1)
	f.Add(cycle+"\n"+cycle[:250]+"\n"+cycle[3:]+"NNN", cycle[:100]+"TTTT"+cycle[104:], 8)
	// The order inside a length bucket and the block summaries over it:
	// anagram-heavy buckets (one word, many strings: every block's summary is
	// that word and only the kernel tells them apart) beside near anagrams,
	// in both kinds of word; one bucket of more than 1,024 equal words, so a
	// whole group of blocks shares one summary and its mask is all ones or
	// zero; buckets of sixteen and seventeen strings, a block and a block
	// and one.
	f.Add("abcd\nabdc\nacbd\nacdb\nadbc\nadcb\nbacd\nbadc\nbcad\nbcda\nbdac\nbdca\ncabd\ncadb\ncbad\ncbda\ncdab\ncdba\ndabc\ndacb\nabce\nabcc\nabc\nabcde", "dcba", 2)
	f.Add("ACGT\nACTG\nAGCT\nAGTC\nATCG\nATGC\nCAGT\nCATG\nCGAT\nCGTA\nCTAG\nCTGA\nGACT\nGATC\nGCAT\nGCTA\nGTAC\nGTCA\nTACG\nTAGC\nACGA\nACGN\nACG\nACGTA", "TGCA", 1)
	f.Add(strings.Repeat("a\nA\n", 520), "a", 0)
	f.Add(strings.Repeat("a\nA\n", 520)+"b\nab", "A", 1)
	f.Add(strings.Repeat("A\n", 1040)+"C\nAC", "A", 0)
	f.Add(strings.Repeat("A\n", 1040)+"C\nAC", "C", 1)
	f.Add("aa\nab\nac\nad\nae\naf\nag\nah\nai\naj\nak\nal\nam\nan\nao\nap\nbaa\nbab\nbac\nbad\nbae\nbaf\nbag\nbah\nbai\nbaj\nbak\nbal\nbam\nban\nbao\nbap\nbaq", "ba", 1)

	f.Fuzz(func(t *testing.T, blob, q string, k int) {
		if len(blob) > 2304 || len(q) > 320 {
			t.Skip("cap work per input")
		}
		// Enough strings for one-letter ones to fill more than a group of
		// blocks; the cap on the blob bounds the work either way.
		data := strings.Split(blob, "\n")
		if len(data) > 1100 {
			data = data[:1100]
		}
		if k < 0 {
			k = -k
		}
		k %= 17 // up to the paper's largest DNA threshold
		query := simsearch.Query{Text: q, K: k}

		// The DP scan defines correctness for this harness.
		want := simsearch.NewScan(data).Search(query)

		engines := []simsearch.Searcher{
			simsearch.NewCascade(data),        // direct
			simsearch.NewBitParallel(data, 0), // cross-check rung
			simsearch.NewSharded(data, 3, simsearch.Options{Algorithm: simsearch.Cascade}),     // sharded
			simsearch.New(data, simsearch.Options{Algorithm: simsearch.Cascade, CacheSize: 8}), // cached
		}
		for _, eng := range engines {
			got := eng.Search(query)
			if len(got) != len(want) {
				t.Fatalf("%s: got %v, want %v (q=%q k=%d data=%q)",
					eng.Name(), got, want, q, k, data)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: got %v, want %v (q=%q k=%d data=%q)",
						eng.Name(), got, want, q, k, data)
				}
			}
		}
	})
}
