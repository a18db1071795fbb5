package simsearch

import (
	"context"

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
// prior protected") two were lost to the bare scan, both past the
// thresholds the paper asks on names: 100,000 city names at k = 12
// (+14–31%) and at k = 16 (+50–75%: nearly every string matches, so the
// words reject nothing and the matches leave in word order to be sorted).
// The bare scan is gone and every scan left is the cascade's sweep, so no
// engine in the library is faster there: re-measured ("The cells the bare
// scan held"), the sweep went 4.7–5.8 → 6.8 ms a query at k = 12 and
// 6.5–8.3 → 11.8 ms at k = 16, while k = 1 went 235–244 → 6–7 µs. A third
// cell, 10,000 reads at k = 16, was sized as a +13% loss and re-measured as
// a tie.
func NewAuto(data []string, expectedK int) Searcher {
	_ = expectedK
	return NewCascade(data)
}

// --- Nearest-neighbour convenience ---------------------------------------------

// TopK returns up to k of the closest dataset strings to text (ordered by
// distance, then ID), considering candidates within maxDist edits, on any
// engine. It searches at radii 0, 1, 2, 4, … up to maxDist and stops at the
// first that holds k matches, so close matches are found without paying for
// a permissive search.
func TopK(eng Searcher, text string, k, maxDist int) []Match {
	return core.TopK(eng, text, k, maxDist)
}

// Nearest returns the closest dataset string within maxDist edits.
func Nearest(eng Searcher, text string, maxDist int) (Match, bool) {
	return core.Nearest(eng, text, maxDist)
}

// HammingSearch returns all strings of exactly len(q) bytes within k
// mismatching positions, sorted by ID, with Dist the Hamming distance. eng
// may be any engine; data is the slice it was built over, which resolves
// the matches of eng's edit search at threshold k.
func HammingSearch(eng Searcher, data []string, q string, k int) []Match {
	// The only errors are the context's, and Background is never cancelled.
	ms, _ := core.Hamming(context.Background(), eng, func(id int32) string { return data[id] }, q, k)
	return ms
}

// --- Additional distances --------------------------------------------------------

// HammingDistance returns the number of differing positions, or -1 when the
// lengths differ. (The PETER index from the paper's related work supports
// Hamming alongside the edit distance.)
func HammingDistance(a, b string) int { return edit.HammingDistance(a, b) }

// GenerateZipfQueries draws n Zipf-skewed near-match queries from data
// (exponent s > 1; larger = more head-heavy), modelling real query logs.
func GenerateZipfQueries(data []string, n, maxEdits int, s float64, seed int64) []string {
	return dataset.QueriesZipf(data, n, maxEdits, s, seed)
}

// --- Dataset loading ------------------------------------------------------------

// LoadSequences reads DNA reads from FASTA (.fasta/.fa), FASTQ (.fastq/.fq)
// or one-per-line text files, dispatching on the extension.
func LoadSequences(path string) ([]string, error) {
	return dataset.LoadSequences(path)
}
