// Package join implements string similarity joins: find all pairs (r, s)
// with ed(r, s) <= k. The paper was written for the EDBT/ICDT 2013 "String
// Similarity Search/Join Competition"; the paper itself evaluates only the
// search problem, but the join is the competition's second half and the
// natural application of both engines, so the reproduction ships it.
//
// Four algorithms are provided, mirroring the search-side design space:
//
//   - NestedLoop: the reference — every pair is verified with the bounded
//     kernel. O(n·m) verifications; exact and trivially correct.
//   - LengthSorted: sorts both sides by length and verifies only pairs whose
//     length difference can pass the eq. 5 filter, streaming a sliding
//     window over the second side. This is the join analogue of the paper's
//     §6 "Sorting" idea.
//   - TrieJoin: indexes the smaller side in a prefix tree and runs one fuzzy
//     search per string of the larger side, the join analogue of §4.
//   - PassJoin: indexes one side's k+1-segment partitions and probes with
//     the other side's substrings (see internal/passjoin), the
//     partition-based method of the competition era.
//
// All algorithms report each qualifying pair exactly once, in no guaranteed
// order, via a callback; Pairs collects them sorted.
package join

import (
	"sort"

	"simsearch/internal/edit"
	"simsearch/internal/passjoin"
	"simsearch/internal/pool"
	"simsearch/internal/trie"
)

// Pair is one join result: indexes into the two input slices and the exact
// edit distance between the strings.
type Pair struct {
	R, S int32
	Dist int
}

// emitFunc receives one qualifying pair. Implementations must be safe for the
// algorithm's concurrency (join serializes calls unless stated otherwise).
type emitFunc func(p Pair)

// Algorithm selects a join strategy.
type Algorithm int

const (
	// NestedLoop verifies every pair (the reference algorithm).
	NestedLoop Algorithm = iota
	// LengthSorted verifies only length-compatible pairs via sorted sweeps.
	LengthSorted
	// TrieJoin probes a prefix tree built over one side.
	TrieJoin
	// PassJoin probes a segment inverted index (partition-based join).
	PassJoin
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case NestedLoop:
		return "nested-loop"
	case LengthSorted:
		return "length-sorted"
	case TrieJoin:
		return "trie"
	case PassJoin:
		return "passjoin"
	default:
		return "unknown"
	}
}

// Options configures a join.
type Options struct {
	// Algorithm selects the strategy (default LengthSorted).
	Algorithm Algorithm
	// Workers > 1 parallelizes the probe side over a fixed pool.
	Workers int
}

// join finds all pairs (i, j) with ed(r[i], s[j]) <= k and calls emit for
// each. Self-joins: pass the same slice twice and filter i < j in emit, or
// use SelfJoin.
func join(r, s []string, k int, opts Options, emit emitFunc) {
	if k < 0 || len(r) == 0 || len(s) == 0 {
		return
	}
	switch opts.Algorithm {
	case NestedLoop:
		nestedLoop(r, s, k, opts.Workers, emit)
	case TrieJoin:
		trieJoin(r, s, k, opts.Workers, emit)
	case PassJoin:
		passJoin(r, s, k, opts.Workers, emit)
	default:
		lengthSorted(r, s, k, opts.Workers, emit)
	}
}

// Pairs runs join and returns the pairs sorted by (R, S).
func Pairs(r, s []string, k int, opts Options) []Pair {
	var out []Pair
	join(r, s, k, opts, func(p Pair) { out = append(out, p) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].R != out[j].R {
			return out[i].R < out[j].R
		}
		return out[i].S < out[j].S
	})
	return out
}

// SelfJoin finds all unordered pairs i < j within data at distance <= k.
func SelfJoin(data []string, k int, opts Options) []Pair {
	var out []Pair
	join(data, data, k, opts, func(p Pair) {
		if p.R < p.S {
			out = append(out, p)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].R != out[j].R {
			return out[i].R < out[j].R
		}
		return out[i].S < out[j].S
	})
	return out
}

// runner picks the probe-side scheduler.
func runner(workers int) pool.Runner {
	if workers > 1 {
		return pool.Fixed{Workers: workers}
	}
	return pool.Serial{}
}

// collect funnels concurrent emissions through a channel so emit itself
// never needs to be thread-safe.
func collect(run func(emitSafe emitFunc), emit emitFunc) {
	ch := make(chan Pair, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range ch {
			emit(p)
		}
	}()
	run(func(p Pair) { ch <- p })
	close(ch)
	<-done
}

func nestedLoop(r, s []string, k, workers int, emit emitFunc) {
	collect(func(out emitFunc) {
		runner(workers).Run(len(r), func(i int) {
			var scratch edit.Scratch
			for j, sj := range s {
				if d, ok := scratch.BoundedDistance(r[i], sj, k); ok {
					out(Pair{R: int32(i), S: int32(j), Dist: d})
				}
			}
		})
	}, emit)
}

func lengthSorted(r, s []string, k, workers int, emit emitFunc) {
	// Sort the s side by length once; for each r string only the window of
	// s strings with |len difference| <= k is verified.
	order := make([]int32, len(s))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return len(s[order[a]]) < len(s[order[b]])
	})
	lens := make([]int, len(order))
	for i, id := range order {
		lens[i] = len(s[id])
	}
	collect(func(out emitFunc) {
		runner(workers).Run(len(r), func(i int) {
			var scratch edit.Scratch
			lo := sort.SearchInts(lens, len(r[i])-k)
			hi := sort.SearchInts(lens, len(r[i])+k+1)
			for _, id := range order[lo:hi] {
				if d, ok := scratch.BoundedDistance(r[i], s[id], k); ok {
					out(Pair{R: int32(i), S: id, Dist: d})
				}
			}
		})
	}, emit)
}

func trieJoin(r, s []string, k, workers int, emit emitFunc) {
	// Index the smaller side; probe with the larger. Swapping sides only
	// swaps pair roles, which we undo on emission.
	swapped := len(r) < len(s)
	build, probe := s, r
	if swapped {
		build, probe = r, s
	}
	tr := trie.Build(build, trie.WithModernPruning())
	tr.Compress()
	collect(func(out emitFunc) {
		runner(workers).Run(len(probe), func(i int) {
			tr.SearchFunc(probe[i], k, func(id int32, d int) {
				if swapped {
					out(Pair{R: id, S: int32(i), Dist: d})
				} else {
					out(Pair{R: int32(i), S: id, Dist: d})
				}
			})
		})
	}, emit)
}

func passJoin(r, s []string, k, workers int, emit emitFunc) {
	idx := passjoin.New(s, k)
	collect(func(out emitFunc) {
		runner(workers).Run(len(r), func(i int) {
			for _, p := range idx.Probe(r[i]) {
				out(Pair{R: int32(i), S: p.S, Dist: p.Dist})
			}
		})
	}, emit)
}
