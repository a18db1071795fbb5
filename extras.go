package simsearch

import (
	"io"
	"os"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/edit"
	"simsearch/internal/join"
)

// --- Similarity joins (the competition's second problem) ----------------------

// Pair is one join result: indexes into the two joined slices and the exact
// edit distance between the strings.
type Pair = join.Pair

// JoinAlgorithm selects a join strategy.
type JoinAlgorithm = join.Algorithm

// Join algorithm values.
const (
	JoinNestedLoop   = join.NestedLoop
	JoinLengthSorted = join.LengthSorted
	JoinTrie         = join.TrieJoin
	JoinPass         = join.PassJoin
)

// Join returns all pairs (i, j) with ed(r[i], s[j]) <= k, sorted by (R, S).
// workers > 1 parallelizes the probe side.
func Join(r, s []string, k int, alg JoinAlgorithm, workers int) []Pair {
	return join.Pairs(r, s, k, join.Options{Algorithm: alg, Workers: workers})
}

// SelfJoin returns all unordered pairs i < j within data at edit distance
// <= k, sorted by (R, S).
func SelfJoin(data []string, k int, alg JoinAlgorithm, workers int) []Pair {
	return join.SelfJoin(data, k, join.Options{Algorithm: alg, Workers: workers})
}

// Clusters groups data indices into connected components of the similarity
// graph (pairs within k edits are connected) — the standard near-duplicate
// grouping built on a self-join.
func Clusters(data []string, k int, workers int) [][]int32 {
	return join.Clusters(data, k, join.Options{Algorithm: join.TrieJoin, Workers: workers})
}

// NewAuto returns the filtered sweep, the engine NewCascade builds. It used
// to return a router that learned, per query regime, which of the scan, the
// trie and the cascade to take; the cascade then won every regime the router
// was measured on (EXPERIMENTS.md Table XVII), so the choice is made here,
// once, and no trie is built beside it. expectedK is ignored — each query
// carries its own K — and stays in the signature for compatibility.
//
// Of the cells sized before the router went (EXPERIMENTS.md, "The cells the
// prior protected") two are lost to the bare scan (NewBitParallel), both
// past the thresholds the paper asks on names: 100,000 city names at k = 12
// (+14–31%) and at k = 16 (+50–75%: nearly every string matches, so the
// words reject nothing and the matches leave in word order to be sorted).
// A third, 10,000 reads at k = 16, was sized as a +13% loss and re-measured
// as a tie. A workload that lives there should build NewBitParallel by name.
func NewAuto(data []string, expectedK int) Searcher {
	_ = expectedK
	return NewCascade(data)
}

// Dynamic is a mutable, concurrency-safe similarity index: Add and Remove
// strings at any time; Search runs under a readers-writer lock.
type Dynamic = core.Dynamic

// NewDynamic returns an empty mutable index.
func NewDynamic() *Dynamic { return core.NewDynamic() }

// NewDynamicFrom seeds a mutable index with data (string i gets ID i).
func NewDynamicFrom(data []string) *Dynamic { return core.NewDynamicFrom(data) }

// --- Nearest-neighbour convenience ---------------------------------------------

// TopK returns up to k of the closest dataset strings to text (ordered by
// distance, then ID), considering candidates within maxDist edits. It uses
// iterative deepening over the threshold, so close matches are found without
// paying for a permissive search.
func TopK(eng Searcher, text string, k, maxDist int) []Match {
	return core.TopK(eng, text, k, maxDist)
}

// Nearest returns the closest dataset string within maxDist edits.
func Nearest(eng Searcher, text string, maxDist int) (Match, bool) {
	return core.Nearest(eng, text, maxDist)
}

// HammingSearch returns all strings of exactly len(q) bytes within k
// mismatching positions, sorted by ID. Trie engines answer it from the
// index; for any other engine pass the data slice to HammingScan.
func HammingSearch(eng Searcher, q string, k int) ([]Match, bool) {
	t, ok := eng.(*core.Trie)
	if !ok {
		return nil, false
	}
	return t.SearchHamming(q, k), true
}

// HammingScan answers a Hamming query by scanning data directly.
func HammingScan(data []string, q string, k int) []Match {
	var out []Match
	for i, s := range data {
		if edit.HammingWithinK(q, s, k) {
			out = append(out, Match{ID: int32(i), Dist: edit.HammingDistance(q, s)})
		}
	}
	return out
}

// --- Additional distances --------------------------------------------------------

// HammingDistance returns the number of differing positions, or -1 when the
// lengths differ. (The PETER index from the paper's related work supports
// Hamming alongside the edit distance.)
func HammingDistance(a, b string) int { return edit.HammingDistance(a, b) }

// DamerauDistance returns the optimal-string-alignment distance, which
// counts a transposition of adjacent characters as a single operation.
func DamerauDistance(a, b string) int { return edit.DamerauDistance(a, b) }

// EditScript returns a minimal edit script transforming a into b; its
// non-match operations number exactly Distance(a, b).
func EditScript(a, b string) []edit.Op { return edit.Ops(a, b) }

// Similarity returns the normalized similarity 1 - ed/max(len) in [0, 1].
func Similarity(a, b string) float64 { return edit.Similarity(a, b) }

// SimilarAtLeast reports whether Similarity(a, b) >= minSim with early exit
// for dissimilar pairs.
func SimilarAtLeast(a, b string, minSim float64) bool {
	return edit.SimilarAtLeast(a, b, minSim)
}

// WeightedCosts weights the three edit operations for WeightedDistance.
type WeightedCosts = edit.Costs

// WeightedDistance returns the minimal total transformation cost under the
// given operation costs; with all costs 1 it equals Distance.
func WeightedDistance(a, b string, c WeightedCosts) int {
	return edit.WeightedDistance(a, b, c)
}

// GenerateZipfQueries draws n Zipf-skewed near-match queries from data
// (exponent s > 1; larger = more head-heavy), modelling real query logs.
func GenerateZipfQueries(data []string, n, maxEdits int, s float64, seed int64) []string {
	return dataset.QueriesZipf(data, n, maxEdits, s, seed)
}

// --- Approximate substring search (semi-global alignment) ---------------------------

// Occurrence is one approximate in-text match of a pattern.
type Occurrence = edit.Occurrence

// SubstringDistance returns the best edit distance between pattern and any
// substring of text (the read-mapping flavour of the DNA use case).
func SubstringDistance(pattern, text string) int {
	return edit.SubstringDistance(pattern, text)
}

// FindApprox returns every end position in text where some substring is
// within k edits of pattern, with the best distance per position.
func FindApprox(pattern, text string, k int) []Occurrence {
	return edit.FindApprox(pattern, text, k)
}

// ContainsApprox reports whether text contains a substring within k edits of
// pattern.
func ContainsApprox(pattern, text string, k int) bool {
	return edit.ContainsApprox(pattern, text, k)
}

// --- Index persistence ------------------------------------------------------------

// SaveIndex serializes a Trie engine (from NewIndex or New with Algorithm
// Trie) to w. Other engine kinds are rejected.
func SaveIndex(w io.Writer, eng Searcher) error {
	t, ok := eng.(*core.Trie)
	if !ok {
		return errNotTrie{eng.Name()}
	}
	_, err := t.WriteTo(w)
	return err
}

// LoadIndex deserializes an index written by SaveIndex.
func LoadIndex(r io.Reader) (Searcher, error) {
	return core.ReadTrie(r)
}

// SaveIndexFile and LoadIndexFile are the file-path conveniences.
func SaveIndexFile(path string, eng Searcher) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveIndex(f, eng); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSequences reads DNA reads from FASTA (.fasta/.fa), FASTQ (.fastq/.fq)
// or one-per-line text files, dispatching on the extension.
func LoadSequences(path string) ([]string, error) {
	return dataset.LoadSequences(path)
}

// LoadIndexFile loads an index saved with SaveIndexFile.
func LoadIndexFile(path string) (Searcher, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadIndex(f)
}

type errNotTrie struct{ name string }

func (e errNotTrie) Error() string {
	return "simsearch: engine " + e.name + " is not a serializable trie index"
}
