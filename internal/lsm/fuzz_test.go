package lsm

// FuzzLiveIdentical: random interleavings of insert / delete / search /
// flush / compact (and, for persistent runs, a mid-sequence close + reopen)
// against the pure-Go dictionary model and the rebuild-from-scratch frozen
// oracle. Every search must be byte-identical to a frozen engine over the
// model's live strings; the final dictionary must match the model exactly.

import (
	"strings"
	"testing"

	"simsearch/internal/core"
)

func FuzzLiveIdentical(f *testing.F) {
	// Seeds on both benchmark alphabets: prose-like city names and ACGT
	// reads, plus ops scripts mixing every op code.
	cities := strings.Join(dedupe(cityUniverse(24)), "\n")
	dna := strings.Join(dedupe(dnaUniverse(16, 10)), "\n")
	f.Add([]byte(cities), []byte{0, 1, 2, 3, 10, 4, 0, 9, 1, 2, 5, 0}, uint8(2), false)
	f.Add([]byte(dna), []byte{0, 0, 1, 1, 3, 0, 4, 2, 2, 12, 5, 7}, uint8(1), false)
	f.Add([]byte(cities), []byte{0, 1, 0, 2, 3, 5, 0, 6, 4, 1, 2, 8}, uint8(3), true)
	f.Add([]byte(cities+"\n"+dna), []byte{0, 3, 1, 6, 2, 9, 3, 0, 4, 1, 5, 2, 0, 7, 2, 4}, uint8(2), true)
	f.Add([]byte(cities), []byte{0, 1, 2, 3, 10, 4, 0, 9, 1, 2, 5, 0}, uint8(0), false) // k = 0: the delta's equality path
	// The signature words. Anagrams (equal words, different bytes) split
	// across segment and delta at k = 0.
	f.Add([]byte("listen\nsilent\nenlist\ntinsel"), []byte{0, 0, 0, 2, 3, 0, 0, 1, 0, 3, 2, 0, 2, 1, 2, 3, 5, 1}, uint8(0), false)
	// An all-ACGNT flush segment in front of a city segment — symbol counts
	// before occurrence bits in one store — and queries with bytes >= 0x80.
	f.Add([]byte("M\xc3\xbcnchen\nBremen\nACGTNACG\nACGTTACG\nTTNN\nM\xfcnchen"), []byte{0, 0, 0, 1, 3, 0, 0, 2, 0, 3, 0, 4, 3, 0, 2, 5, 2, 0, 5, 2, 2, 3, 4, 0, 2, 5, 2, 2}, uint8(2), true)
	// Deleted after its flush: the tombstone sits in a newer segment than
	// the word that survives the filter.
	f.Add([]byte("Bremen\nBern\nBerlin\nBremer"), []byte{0, 0, 0, 1, 3, 0, 0, 2, 3, 0, 1, 0, 0, 3, 3, 0, 2, 0, 1, 1, 2, 1, 5, 0, 4, 0, 2, 0}, uint8(1), false)
	// The edge of the length window: |len(q) - len(x)| = k in delta and segment.
	f.Add([]byte("abc\nabcdef\nabcd\nabcde\na\n"), []byte{0, 0, 0, 1, 3, 0, 0, 2, 0, 3, 0, 4, 0, 5, 2, 0, 2, 1, 2, 2, 2, 4, 2, 5}, uint8(3), false)
	// The gram word of an all-ACGNT segment, through flush, compaction and
	// reopen: homopolymer runs that saturate AA, an anagram pair only the
	// dinucleotide counts tell apart, N between every pair, lengths 0 and 1
	// — searched as stored and mutated (op 5 puts a byte outside ACGNT in).
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAACGT\nAAAAAAAAAAAAAAAAAAAACGTAAAA\nAACCGGTT\nACGTACGT\nANCNGNTN\n\nA\nAC"),
		[]byte{0, 0, 0, 1, 0, 2, 0, 3, 3, 0, 0, 4, 0, 5, 0, 6, 0, 7, 3, 0, 2, 3, 5, 3, 2, 0, 5, 1, 4, 0, 2, 3, 5, 2, 2, 5, 2, 6, 5, 7, 1, 2, 2, 3}, uint8(4), true)
	f.Add([]byte("AACCGGTT\nACGTACGT\nTTGGCCAA\nACGTACGA"), []byte{0, 0, 0, 1, 0, 2, 3, 0, 0, 3, 2, 1, 5, 1, 4, 0, 2, 1, 2, 0}, uint8(1), true)
	// The order inside a segment's length buckets and its block summaries,
	// rebuilt on every flush, compaction and reopen. An anagram-heavy bucket
	// (one word, many strings) with near anagrams beside it, flushed six at
	// a time so the anagrams are spread over segments and merged back by the
	// compactions the segment limit forces.
	anagrams := "abcd\nabdc\nacbd\nacdb\nadbc\nadcb\nbacd\nbadc\nbcad\nbcda\nbdac\nbdca\ncabd\ncadb\ncbad\ncbda\ncdab\ncdba\nabce\nabcc\nabc\nabcde"
	inserts := func(n int, tail ...byte) (script []byte) {
		for i := 0; i < n; i++ {
			script = append(script, 0, byte(i))
		}
		return append(script, tail...)
	}
	f.Add([]byte(anagrams), inserts(22, 2, 0, 2, 5, 5, 9, 1, 3, 2, 3, 4, 0, 2, 17, 5, 20, 2, 21), uint8(2), true)
	f.Add([]byte(anagrams), inserts(22, 2, 4, 4, 0, 2, 4, 1, 4, 2, 4), uint8(0), false)
	// All-ACGNT segments beside mixed ones, more than a flush of each: the
	// reads' anagram bucket in count words, the names' in occurrence bits,
	// and after compaction one segment of occurrence bits over both.
	reads := "ACGT\nACTG\nAGCT\nAGTC\nATCG\nATGC\nCAGT\nCATG\nCGAT\nCGTA\nCTAG\nCTGA\nACGN\nACG"
	f.Add([]byte(reads+"\n"+anagrams), inserts(36, 2, 0, 2, 14, 5, 3, 5, 20, 4, 0, 2, 7, 2, 30, 1, 0, 2, 0, 2, 1), uint8(1), true)
	f.Add([]byte(reads), inserts(14, 2, 0, 5, 6, 2, 12, 4, 0, 2, 13, 5, 13), uint8(2), true)

	f.Fuzz(func(t *testing.T, blob []byte, script []byte, kb uint8, persist bool) {
		universe := strings.Split(string(blob), "\n")
		if len(universe) > 48 {
			universe = universe[:48]
		}
		for _, s := range universe {
			if len(s) > 64 {
				t.Skip("oversized universe string")
			}
		}
		if len(script) > 256 {
			script = script[:256]
		}
		k := int(kb % 5)

		dir := ""
		if persist {
			dir = t.TempDir()
		}
		opts := Options{Dir: dir, FlushLimit: 6, maxSegments: 3}
		st, err := Open(opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer func() { st.Close() }()
		m := newModel(nil)

		reopenAt := -1
		if persist {
			reopenAt = len(script) / 2
		}
		for i := 0; i+1 < len(script); i += 2 {
			if i == reopenAt {
				// Simulated restart mid-sequence: unflushed delta
				// must come back from the WAL.
				if err := st.Close(); err != nil {
					t.Fatalf("mid-sequence Close: %v", err)
				}
				if st, err = Open(opts); err != nil {
					t.Fatalf("mid-sequence reopen: %v", err)
				}
				checkDict(t, st, m)
			}
			op, arg := script[i], int(script[i+1])
			var s string
			if len(universe) > 0 {
				s = universe[arg%len(universe)]
			}
			switch op % 6 {
			case 0:
				id, added, err := st.Insert(s)
				if err != nil {
					t.Fatalf("Insert(%q): %v", s, err)
				}
				prevID, known := m.idOf[s]
				wasLive := known && m.live[prevID]
				m.insert(s)
				if added == wasLive {
					t.Fatalf("Insert(%q): added=%v disagrees with model", s, added)
				}
				if id != m.idOf[s] {
					t.Fatalf("Insert(%q): id %d, model says %d", s, id, m.idOf[s])
				}
			case 1:
				changed, err := st.Delete(s)
				if err != nil {
					t.Fatalf("Delete(%q): %v", s, err)
				}
				id, known := m.idOf[s]
				if changed != (known && m.live[id]) {
					t.Fatalf("Delete(%q): changed=%v disagrees with model", s, changed)
				}
				m.delete(s)
			case 2:
				checkSearch(t, st, m, core.Query{Text: s, K: k})
			case 3:
				if err := st.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
			case 4:
				if err := st.Compact(); err != nil {
					t.Fatalf("Compact: %v", err)
				}
			case 5:
				checkSearch(t, st, m, core.Query{Text: mutate(s, arg), K: k})
			}
		}

		checkDict(t, st, m)
		for _, s := range universe {
			checkSearch(t, st, m, core.Query{Text: s, K: k})
		}
		if persist {
			// Final restart: the recovered store must answer like the
			// oracle too.
			if err := st.Close(); err != nil {
				t.Fatalf("final Close: %v", err)
			}
			if st, err = Open(opts); err != nil {
				t.Fatalf("final reopen: %v", err)
			}
			checkDict(t, st, m)
			for _, s := range universe {
				checkSearch(t, st, m, core.Query{Text: s, K: k})
			}
		}
	})
}
