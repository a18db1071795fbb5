// Package cascade implements the paper's §6 future-work list as one serving
// engine: a filter cascade in which every stage is cheaper per candidate
// than the next and only survivors pay for the edit-distance kernel. It has
// one layout on every corpus,
//
//	length bucket -> block summary -> one signature word (-> a second, on reads) -> band kernel
//
// over a scan.Arena of its own; beside the corpus bytes the engine costs 9
// bytes per string: the arena's slots give the length window and the
// bytes, the engine adds one precomputed uint64 per
// slot and, per block of sixteen slots, two summary words that let a query
// skip the block unread — which pays because the engine packs the arena
// itself, every length bucket ordered by its words. What the word holds is chosen once, at build
// time, from the arena's bytes: when every one of them is A, C, G, N or T it
// packs the five symbol counts (the frequency-vector filter of PETER,
// Rheinländer et al., cited in PAPER §6, read from 8 bytes), otherwise
// counted occurrence bits of the byte values folded into 32 buckets. An
// all-DNA arena gets a second word per slot, sixteen dinucleotide counts,
// read only for the slots the first word lets through (8 more bytes per
// string). The words and the sweep over them are scan.Words (internal/scan/words.go),
// which the live store's segments run too; this package adds the stage
// counters, the ablation switch and the engine surface. See DESIGN §13 for
// the 3-bit packed arena, q-gram stage and banded verify this layout
// replaced, and why.
//
// All query-side state — the query's word and its compiled pattern — is
// built once per query; every per-candidate step allocates nothing.
//
// All the words are sound filters — they never reject a string within distance
// k — so the cascade returns exactly the matches a full scan would; the
// differential fuzz targets and the ablation identity test enforce this.
package cascade

import (
	"context"
	"math"
	"sync/atomic"

	"simsearch/internal/scan"
)

// Match is a scan match: cascade results use dataset IDs and exact
// distances, in ID order, like every other engine.
type Match = scan.Match

// CompCounter counts comparisons, compatible with scan.CompCounter.
type CompCounter = scan.CompCounter

// Engine is the cascade searcher over a frozen dataset. It is safe for
// concurrent Search/SearchContext calls: all per-query state lives on the
// query's stack, and the stage counters are atomic.
type Engine struct {
	words *scan.Words
	name  string

	noFreq bool
	comps  CompCounter

	// Per-stage survivor counters, cumulative across queries. With the
	// signature stage disabled every candidate passes both words, so each
	// survivor count equals its input count and the prune rates read as zero.
	queries    atomic.Uint64
	candidates atomic.Uint64 // length-bucket survivors (slots of the windows)
	swept      atomic.Uint64 // slots in blocks the summaries let the sweep into
	passed     atomic.Uint64 // survivors of the first word
	survivors  atomic.Uint64 // survivors of every word == verify-kernel invocations
	matches    atomic.Uint64
}

// Option configures an Engine.
type Option func(*Engine)

// WithoutFrequency disables the signature stage, both words of it (ablation
// mode): every slot of the length window goes to the kernel.
func WithoutFrequency() Option { return func(e *Engine) { e.noFreq = true } }

// WithComparisonCounter adds a counter receiving the number of verify-kernel
// invocations (the comparisons the cascade could not prune).
func WithComparisonCounter(c CompCounter) Option { return func(e *Engine) { e.comps = c } }

// New builds a cascade engine over data, packed into an arena of its own:
// length-bucketed, each bucket ordered by its words (scan.NewWords).
func New(data []string, opts ...Option) *Engine {
	e := &Engine{words: scan.NewWords(data), name: "cascade/bytes"}
	if e.words.Counts() {
		e.name = "cascade/dna"
	}
	for _, o := range opts {
		o(e)
	}
	// The ablation answers identically but must never share a cache key with
	// the full cascade.
	if e.noFreq {
		e.name += "-nofreq"
	}
	return e
}

// Len returns the dataset size.
func (e *Engine) Len() int { return e.words.Arena().Len() }

// Name identifies the engine and its signature kind: "cascade/dna" (symbol
// counts) or "cascade/bytes" (occurrence bits), plus any ablation suffix.
func (e *Engine) Name() string { return e.name }

// Search returns every dataset string within edit distance k of q, in ID
// order.
func (e *Engine) Search(q string, k int) []Match {
	ms, _ := e.SearchContext(context.Background(), q, k)
	return ms
}

// SearchContext is Search honoring cancellation: the slot sweep polls ctx
// once per block of candidates and returns ctx.Err() with partial results
// dropped. Stage counters are flushed on every exit path.
func (e *Engine) SearchContext(ctx context.Context, q string, k int) ([]Match, error) {
	if k < 0 {
		return nil, nil
	}
	e.queries.Add(1)
	slack := k // what the two words may differ by on either side
	if e.noFreq {
		slack = math.MaxInt
	}
	pr := scan.NewProbe(q, k)
	ms, err := e.words.Sweep(ctx, &pr, slack, make([]Match, 0, 16))
	e.candidates.Add(pr.Visited)
	e.swept.Add(pr.Swept)
	e.passed.Add(pr.Passed)
	e.survivors.Add(pr.Kept)
	if e.comps != nil {
		e.comps.Add(pr.Kept)
	}
	if err != nil {
		return nil, err
	}
	e.matches.Add(uint64(len(ms)))
	return scan.MergeRuns(ms), nil
}

// Stats is a point-in-time snapshot of the engine's layout and cumulative
// per-stage survivor counters.
type Stats struct {
	Strings    int
	ArenaBytes int // the arena's payload
	Buckets    int // non-empty length buckets

	Queries    uint64
	Candidates uint64 // survivors of the length bucket (slots of the windows)
	Swept      uint64 // of those, the slots in blocks the summaries let the sweep into
	Passed     uint64 // survivors of the first word; the second, where there is one, takes Survivors below it
	Survivors  uint64 // survivors of the signature stage = verify calls
	Matches    uint64
}

// Stats returns the current snapshot.
func (e *Engine) Stats() Stats {
	ar := e.words.Arena()
	return Stats{
		Strings:    ar.Len(),
		ArenaBytes: ar.Bytes(),
		Buckets:    ar.Buckets(),
		Queries:    e.queries.Load(),
		Candidates: e.candidates.Load(),
		Swept:      e.swept.Load(),
		Passed:     e.passed.Load(),
		Survivors:  e.survivors.Load(),
		Matches:    e.matches.Load(),
	}
}
