package trie

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzTrieAgrees builds four trees over fuzzed newline-joined data — the
// modern and the paper descent, each on a compressed and on a plain
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
				tr := Build(strs, compress, opts...)
				if got := tr.Search(q, k); !equalMatches(got, want) {
					t.Fatalf("modern=%v compress=%v: Search(%q, %d) = %v, want %v", modern, compress, q, k, got, want)
				}
			}
		}
	})
}

// FuzzTrieShape builds the plain and the compressed tree over fuzzed
// newline-joined data and checks each against the tree its distinct strings
// define by brute force. On the plain tree every distinct prefix is a node;
// on the compressed one the root, every stored string and every prefix with
// two or more distinct next bytes are. Each node's length window and its IDs,
// in ID order, are those of the strings it holds; the preorder visits the
// nodes' paths in sorted order; and the slabs are exactly sized and laid out
// in preorder (checkSlabs).
func FuzzTrieShape(f *testing.F) {
	f.Add("Berlin\nBern\nUlm\nBonn\nBerlin")
	f.Add("ulm\nbonn\n\nulm\nulmen\nbonn\n\nulm\nu")
	f.Add("ab\nabc\nabd\na\nb\nabc")
	f.Add("xyz")
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 4096 {
			return
		}
		strs := strings.Split(data, "\n")
		for _, compress := range []bool{false, true} {
			tr := Build(strs, compress)
			checkSlabs(t, tr)
			got, last := map[string]shape{}, ""
			var walk func(i int32, path string)
			walk = func(i int32, path string) {
				n := tr.nodes[i]
				path += string(tr.labels[n.off:tr.nodes[i+1].off])
				if len(got) > 0 && path <= last {
					t.Fatalf("compress=%v: node %q follows %q in preorder", compress, path, last)
				}
				last = path
				sh := shape{minLen: n.minLen, maxLen: n.maxLen}
				if n.id >= 0 {
					sh.ids = []int32{n.id}
				} else if n.id != noID {
					sh.ids = tr.dups[-2-n.id]
				}
				got[path] = sh
				for c := i + 1; c < n.end; c = tr.nodes[c].end {
					walk(c, path)
				}
			}
			walk(0, "")
			if want := shapeOf(strs, compress); !reflect.DeepEqual(got, want) {
				t.Fatalf("compress=%v: tree %v, want %v", compress, got, want)
			}
		}
	})
}

// shape is what the shape oracle knows of a node: its length window and the
// IDs of the strings that end at it.
type shape struct {
	minLen, maxLen int32
	ids            []int32
}

// shapeOf defines the tree over strs by brute force, keyed by each node's
// path from the root.
func shapeOf(strs []string, compress bool) map[string]shape {
	all, next := map[string]shape{}, map[string]map[byte]bool{}
	for id, s := range strs {
		for i := 0; i <= len(s); i++ {
			sh, ok := all[s[:i]]
			if !ok {
				sh.minLen = 1<<31 - 1
				next[s[:i]] = map[byte]bool{}
			}
			sh.minLen, sh.maxLen = min(sh.minLen, int32(len(s))), max(sh.maxLen, int32(len(s)))
			if i == len(s) {
				sh.ids = append(sh.ids, int32(id))
			} else {
				next[s[:i]][s[i]] = true
			}
			all[s[:i]] = sh
		}
	}
	for p, sh := range all {
		if compress && p != "" && sh.ids == nil && len(next[p]) < 2 {
			delete(all, p)
		}
	}
	return all
}
