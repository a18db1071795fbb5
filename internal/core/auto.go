package core

import (
	"simsearch/internal/dataset"
	"simsearch/internal/scan"
	"simsearch/internal/trie"
)

// statsFn computes dataset statistics for Auto. A package variable so the
// regression test can prove the small-dataset path never pays the full
// corpus pass (see TestAutoSmallSkipsStats).
var statsFn = dataset.Stats

// BuildAmortization is the dataset size below which no index build pays for
// itself: Auto (and the router's cold-start prior, which keeps this rule)
// keeps smaller datasets on the scan.
const BuildAmortization = 4096

// Auto picks an engine for the dataset and an expected threshold — the
// paper's conclusion turned into an executable planner, updated with this
// reproduction's own measurements (EXPERIMENTS.md):
//
//   - Tiny datasets never amortize an index build: scan.
//   - Long strings over a small alphabet with substantial thresholds (the
//     DNA regime) favor the prefix tree with modern pruning — both in the
//     paper and here.
//   - Short variable-length strings with small thresholds (the city-name
//     regime): the paper's own index loses to its scan, but the modern
//     banded trie wins on this regime too, so the planner still picks the
//     trie once the dataset is large enough to amortize the build.
//
// expectedK <= 0 defaults to 2. The returned engine is always exact; the
// choice only affects speed.
//
// The public facade's NewAuto no longer calls this directly — it builds the
// adaptive router (internal/router), whose cold-start prior keeps the two
// scan rules, prefers the filter cascade to the trie through k = 8, and then
// re-fits per query. Auto remains the static reference planner.
func Auto(data []string, expectedK int) Searcher {
	if expectedK <= 0 {
		expectedK = 2
	}
	// The count decides the common small-dataset case by itself; computing
	// full statistics first would pay an O(total bytes) corpus pass just to
	// read back len(data).
	if len(data) < BuildAmortization {
		return NewSequential(data,
			scan.WithStrategy(scan.SimpleTypes), scan.WithBandedKernel(),
			scan.WithSortByLength())
	}
	info := statsFn(data)
	// Very permissive thresholds relative to the string length defeat every
	// index's pruning (nearly everything matches); scanning with the banded
	// kernel and length sorting is then the robust choice.
	if float64(expectedK) > 0.5*info.AvgLen {
		return NewSequential(data,
			scan.WithStrategy(scan.SimpleTypes), scan.WithBandedKernel(),
			scan.WithSortByLength())
	}
	return NewTrie(data, true, trie.WithModernPruning())
}
