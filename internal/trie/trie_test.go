package trie

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"simsearch/internal/dataset"
	"simsearch/internal/edit"
)

func sortedMatches(ms []Match) []Match {
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return ms
}

// scanRef is the brute-force reference: full scan with exact distances.
func scanRef(data []string, q string, k int) []Match {
	var out []Match
	for i, s := range data {
		if d := edit.Distance(q, s); d <= k {
			out = append(out, Match{ID: int32(i), Dist: d})
		}
	}
	return out
}

func equalMatches(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	sortedMatches(a)
	sortedMatches(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPaperFigure4Compression(t *testing.T) {
	// Figure 4: "Berlin", "Bern", "Ulm" — the compressed tree has half the
	// nodes of the plain tree.
	data := []string{"Berlin", "Bern", "Ulm"}
	plain, tr := Build(data, false), Build(data, true)
	// Plain: root + B,e,r,l,i,n + n(after Ber->n) + U,l,m = 1+6+1+3 = 11.
	if got := plain.Stats().Nodes; got != 11 {
		t.Errorf("plain tree: %d nodes, want 11", got)
	}
	// Compressed: root, "Ber", "lin", "n", "Ulm" = 5 nodes.
	if got := tr.Stats().Nodes; got != 5 {
		t.Errorf("compressed tree: %d nodes, want 5", got)
	}
	if !tr.Stats().Compressed || plain.Stats().Compressed {
		t.Error("Stats().Compressed does not say which tree was built")
	}
	// Same results from both trees.
	for _, q := range []string{"Bern", "Berlin", "Ulm", "Barn", "Hamburg"} {
		for k := 0; k <= 3; k++ {
			want := scanRef(data, q, k)
			for _, tr := range []*Tree{plain, tr} {
				if got := tr.Search(q, k); !equalMatches(got, want) {
					t.Errorf("compressed=%v: Search(%q, %d) = %v, want %v", tr.Stats().Compressed, q, k, got, want)
				}
			}
		}
	}
}

func TestSearchExactAndFuzzy(t *testing.T) {
	data := []string{"berlin", "bern", "bonn", "munich", "ulm", "köln", "erlangen", ""}
	tr := Build(data, false)
	// Exact (k=0).
	ms := tr.Search("bonn", 0)
	if len(ms) != 1 || ms[0].ID != 2 || ms[0].Dist != 0 {
		t.Errorf("exact search = %v", ms)
	}
	// Empty query matches empty string at k=0.
	ms = tr.Search("", 0)
	if len(ms) != 1 || ms[0].ID != 7 {
		t.Errorf("empty query = %v", ms)
	}
	// Fuzzy.
	ms = tr.Search("berlyn", 1)
	if len(ms) != 1 || ms[0].ID != 0 || ms[0].Dist != 1 {
		t.Errorf("fuzzy search = %v", ms)
	}
	// Negative k returns nothing.
	if got := tr.Search("bonn", -1); got != nil {
		t.Errorf("k=-1 returned %v", got)
	}
}

func TestDuplicateStringsShareNode(t *testing.T) {
	data := []string{"ulm", "ulm", "ulm"}
	tr := Build(data, false)
	ms := tr.Search("ulm", 0)
	if len(ms) != 3 {
		t.Fatalf("got %d matches, want 3", len(ms))
	}
	ids := map[int32]bool{}
	for _, m := range ms {
		ids[m.ID] = true
	}
	if !ids[0] || !ids[1] || !ids[2] {
		t.Errorf("ids = %v", ms)
	}
}

func TestStats(t *testing.T) {
	data := []string{"abc", "abd", "x"}
	tr := Build(data, false)
	st := tr.Stats()
	if st.Strings != 3 || st.Nodes != 6 || st.MaxDepth != 3 { // root, a, b, c, d, x
		t.Errorf("stats = %+v", st)
	}
	if st.LabelBytes != 5 { // nodes a, b, c, d, x — one byte each
		t.Errorf("LabelBytes = %d, want 5", st.LabelBytes)
	}
	st = Build(data, true).Stats()
	if !st.Compressed || st.MaxDepth != 3 || st.Nodes != 5 || st.LabelBytes != 5 { // root, "ab", "c", "d", "x"
		t.Errorf("compressed stats = %+v", st)
	}
	for _, compress := range []bool{false, true} {
		if tr := Build(nil, compress); tr.Stats().Nodes != 1 || tr.Len() != 0 || tr.Search("", 3) != nil {
			t.Errorf("compress=%v: the tree over no strings has %d nodes and %d strings", compress, tr.Stats().Nodes, tr.Len())
		}
	}
}

func randomString(r *rand.Rand, alphabet string, maxLen int) string {
	n := r.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	return sb.String()
}

func TestQuickTrieAgreesWithScan(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, modern := range []bool{false, true} {
			compress, modern := compress, modern
			fn := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				n := 1 + r.Intn(60)
				data := make([]string, n)
				for i := range data {
					data[i] = randomString(r, "ACGNT", 12)
				}
				var opts []Option
				if modern {
					opts = append(opts, WithModernPruning())
				}
				tr := Build(data, compress, opts...)
				q := randomString(r, "ACGNT", 12)
				k := r.Intn(5)
				return equalMatches(tr.Search(q, k), scanRef(data, q, k))
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
				t.Errorf("compress=%v modern=%v: %v", compress, modern, err)
			}
		}
	}
}

func TestModernAndPaperModesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	data := make([]string, 300)
	for i := range data {
		data[i] = randomString(r, "abcdAB", 14)
	}
	paper := Build(data, true)
	modern := Build(data, true, WithModernPruning())
	if !modern.Modern() || paper.Modern() {
		t.Fatal("Modern() flags wrong")
	}
	for i := 0; i < 80; i++ {
		q := randomString(r, "abcdAB", 14)
		k := r.Intn(5)
		if !equalMatches(paper.Search(q, k), modern.Search(q, k)) {
			t.Fatalf("modes diverge on %q k=%d", q, k)
		}
	}
}

func TestQuickCompressionNeverLosesStrings(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(80)
		data := make([]string, n)
		for i := range data {
			data[i] = randomString(r, "ab", 8)
		}
		tr := Build(data, true)
		if tr.Stats().Nodes > Build(data, false).Stats().Nodes {
			return false
		}
		// Every inserted string must still be findable exactly.
		for i, s := range data {
			found := false
			for _, m := range tr.Search(s, 0) {
				if m.ID == int32(i) {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLongDNAStrings(t *testing.T) {
	// The DNA regime: strings of length ~100 with high overlap.
	r := rand.New(rand.NewSource(42))
	genome := randomString(r, "ACGT", 4000)
	for len(genome) < 300 {
		genome = randomString(r, "ACGT", 4000)
	}
	var data []string
	for i := 0; i+100 <= len(genome) && len(data) < 200; i += 7 {
		data = append(data, genome[i:i+100])
	}
	tr := Build(data, true)
	for _, k := range []int{0, 4, 8, 16} {
		q := data[len(data)/2]
		got := tr.Search(q, k)
		want := scanRef(data, q, k)
		if !equalMatches(got, want) {
			t.Errorf("k=%d: got %d matches, want %d", k, len(got), len(want))
		}
	}
}

// TestNodeIs20Bytes pins the node layout: one ID in place of a slice of them
// took a node from 80 bytes to 64, and the preorder slab's implicit children
// and labels — first child next, sibling at the subtree's end, label up to
// the next node's — from 64 bytes and a child pointer to 20.
func TestNodeIs20Bytes(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 20 {
		t.Fatalf("a node is %d bytes, want 20", got)
	}
}

// TestDuplicatesAndPacking runs duplicate IDs through both descents on the
// plain and the compressed tree: one string stored three times, one twice,
// and the empty string — which ends at the root — twice.
func TestDuplicatesAndPacking(t *testing.T) {
	data := []string{"ulm", "bonn", "", "ulm", "ulmen", "bonn", "", "ulm", "u"}
	queries := []struct {
		text string
		k    int
	}{{"ulm", 0}, {"ulm", 1}, {"ulm", 2}, {"bonn", 1}, {"", 0}, {"", 1}, {"ulmen", 3}}
	for _, compress := range []bool{false, true} {
		for _, modern := range []bool{false, true} {
			var opts []Option
			if modern {
				opts = append(opts, WithModernPruning())
			}
			tr := Build(data, compress, opts...)
			for _, q := range queries {
				if got, want := tr.Search(q.text, q.k), scanRef(data, q.text, q.k); !equalMatches(got, want) {
					t.Errorf("compress=%v modern=%v: Search(%q, %d) = %v, want %v", compress, modern, q.text, q.k, got, want)
				}
			}
			if tr.nodes[0].id >= 0 || len(tr.dups) != 3 {
				t.Errorf("compress=%v modern=%v: root id %d, %d duplicate lists; want the root's in one of 3", compress, modern, tr.nodes[0].id, len(tr.dups))
			}
			checkSlabs(t, tr)
		}
	}
}

// TestPackedSlabs: a tree is two slabs, exactly sized — its nodes in
// preorder with a sentinel past the last, and its labels in the same order.
func TestPackedSlabs(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, data := range [][]string{nil, {""}, {"Berlin", "Bern", "Ulm", "Bonn", "Berlin"}} {
			checkSlabs(t, Build(data, compress))
		}
	}
}

// checkSlabs fails unless tr's slabs hold the preorder invariants the
// descents walk by: the root is node 0 with an empty label, every node's
// first child is the next node and its children chain through their ends to
// its own end, children are in ascending order of their first label byte,
// the label offsets rise to a sentinel at the end of the label slab, every
// label but the root's is non-empty (one byte in the plain tree), and the
// walk from the root reaches every node and label byte Build sized — Stats'
// node count and label bytes — with no capacity past either slab.
func checkSlabs(t *testing.T, tr *Tree) {
	t.Helper()
	st, nodes := tr.Stats(), tr.nodes
	if len(nodes) != st.Nodes+1 || cap(nodes) != len(nodes) || len(tr.labels) != st.LabelBytes || cap(tr.labels) != len(tr.labels) {
		t.Fatalf("%d nodes (cap %d) and %d label bytes (cap %d); Stats says %d nodes and a sentinel, %d label bytes",
			len(nodes), cap(nodes), len(tr.labels), cap(tr.labels), st.Nodes, st.LabelBytes)
	}
	if sentinel := nodes[st.Nodes]; int(sentinel.off) != st.LabelBytes {
		t.Fatalf("the sentinel's label offset is %d, want %d", sentinel.off, st.LabelBytes)
	}
	if nodes[0].off != 0 || nodes[1].off != 0 || int(nodes[0].end) != st.Nodes {
		t.Fatalf("root: label [%d, %d), subtree ends at %d; want an empty label at 0 and all %d nodes", nodes[0].off, nodes[1].off, nodes[0].end, st.Nodes)
	}
	reached, labelBytes := 0, 0
	var walk func(i int32)
	walk = func(i int32) {
		reached++
		n := nodes[i]
		label := tr.labels[n.off:nodes[i+1].off]
		labelBytes += len(label)
		if i > 0 && (len(label) == 0 || (!st.Compressed && len(label) != 1)) {
			t.Fatalf("node %d has a label of %d bytes", i, len(label))
		}
		if n.end <= i || int(n.end) > st.Nodes {
			t.Fatalf("node %d's subtree ends at %d", i, n.end)
		}
		c, prev := i+1, -1
		for ; c < n.end; c = nodes[c].end {
			if first := int(tr.labels[nodes[c].off]); first <= prev {
				t.Fatalf("node %d's children are not in ascending order of their first byte", i)
			} else {
				prev = first
			}
			walk(c)
		}
		if c != n.end {
			t.Fatalf("node %d's children chain to %d, past its end %d", i, c, n.end)
		}
	}
	walk(0)
	for i := 0; i < st.Nodes; i++ {
		if nodes[i].off > nodes[i+1].off {
			t.Fatalf("label offsets fall from node %d to %d: %d, %d", i, i+1, nodes[i].off, nodes[i+1].off)
		}
	}
	if reached != st.Nodes || labelBytes != st.LabelBytes {
		t.Fatalf("%d nodes and %d label bytes reached, Stats says %d and %d", reached, labelBytes, st.Nodes, st.LabelBytes)
	}
}

// TestModernSearchAllocs pins what a modern-descent query allocates: its
// compiled pattern and its results, not a DP row per depth. The int rows the
// band word replaced took 50 allocations here at k = 0 and 111 at k = 8.
func TestModernSearchAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	genome := make([]byte, 20000)
	for i := range genome {
		genome[i] = "ACGT"[r.Intn(4)]
	}
	var data []string
	for i := 0; i+100 <= len(genome); i += 13 {
		data = append(data, string(genome[i:i+100]))
	}
	tr := Build(data, true, WithModernPruning())
	read := []byte(data[len(data)/2])
	read[40], read[70] = 'N', 'N'
	q := string(read)
	for _, k := range []int{0, 8} {
		if got, want := tr.Search(q, k), scanRef(data, q, k); !equalMatches(got, want) || (k > 0 && len(want) == 0) {
			t.Fatalf("k=%d: Search = %v, want %v", k, got, want)
		}
		if n := testing.AllocsPerRun(50, func() { tr.Search(q, k) }); n > 8 {
			t.Errorf("k=%d: a query allocates %.0f times, want at most 8", k, n)
		}
	}
}

// TestBuildAllocs pins what a build allocates: the sort's two work arrays,
// the two slabs and a few headers, and one ID list per string stored more
// than once — nothing per node. Growing the tree node by node allocated
// about one object per byte of the data.
func TestBuildAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		data []string
	}{{"10,000 reads", dataset.DNAReads(10000, 7)}, {"20,000 names", dataset.Cities(20000, 7)}} {
		groups, seen := 0, map[string]int{}
		for _, s := range c.data {
			if seen[s]++; seen[s] == 2 {
				groups++
			}
		}
		for _, compress := range []bool{false, true} {
			n := testing.AllocsPerRun(3, func() { Build(c.data, compress) })
			t.Logf("%s compress=%v: %.0f allocations, %d duplicate groups", c.name, compress, n, groups)
			if n > float64(12+groups) {
				t.Errorf("%s, compress=%v: a build allocates %.0f times, want at most 12 + %d duplicate groups", c.name, compress, n, groups)
			}
		}
	}
}
