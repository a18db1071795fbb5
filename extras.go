package simsearch

import (
	"context"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/edit"
	"simsearch/internal/pool"
)

// --- Similarity joins (the competition's second problem) ----------------------

// Pair is one join result: the index of the probe string (R), the ID of the
// engine's string (S) and the exact edit distance between them.
type Pair = core.Pair

// Join returns all pairs (i, j) with ed(probes[i], s_j) <= k, sorted by
// (R, S), where s is the dataset eng was built over: one search of eng per
// probe. workers > 1 probes on a fixed pool of that many workers; otherwise
// the engine's own batch scheduler runs them.
func Join(eng Searcher, probes []string, k, workers int) []Pair {
	return core.Join(eng, probes, k, probeRunner(workers))
}

// SelfJoin returns all unordered pairs i < j within data at edit distance
// <= k, sorted by (R, S). eng must be built over data.
func SelfJoin(eng Searcher, data []string, k, workers int) []Pair {
	return core.SelfJoin(eng, data, k, probeRunner(workers))
}

// Clusters groups data indices into connected components of the similarity
// graph (pairs within k edits are connected) — the standard near-duplicate
// grouping built on SelfJoin. eng must be built over data.
func Clusters(eng Searcher, data []string, k, workers int) [][]int32 {
	return core.Clusters(eng, data, k, probeRunner(workers))
}

// probeRunner schedules a join's probes.
func probeRunner(workers int) pool.Runner {
	if workers > 1 {
		return pool.Fixed{Workers: workers}
	}
	return nil
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
