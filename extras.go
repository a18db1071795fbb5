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
