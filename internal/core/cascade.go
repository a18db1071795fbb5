package core

import (
	"context"
	"sync/atomic"

	"simsearch/internal/metrics"
	"simsearch/internal/scan"
)

// Cascade is the paper's §6 future-work list as one serving engine: a filter
// cascade in which every stage is cheaper per candidate than the next and
// only survivors pay for the edit-distance kernel. It has one layout on
// every corpus,
//
//	length bucket -> block summary -> one signature word (-> a 4-gram set, on reads) -> band kernel
//
// over a scan.Arena of its own; beside the corpus bytes the engine costs 9
// bytes per string, 41 on reads: the arena's slots give the length window
// and the bytes, the engine adds one precomputed uint64 per slot and, per
// block of sixteen slots, two summary words that let a query skip the block
// unread — which pays because the engine packs the arena itself, every
// length bucket ordered by its words. What the word holds is chosen once, at
// build time, from the arena's bytes: when every one of them is A, C, G, N
// or T it packs the five symbol counts (the frequency-vector filter of
// PETER, Rheinländer et al., cited in PAPER §6, read from 8 bytes),
// otherwise counted occurrence bits of the byte values folded into 32
// buckets. An all-DNA arena also holds each slot's set of 4-grams over ACGT,
// 256 bits read only for the slots the word lets through (32 more bytes per
// string): the q-gram lemma at q = 4. The words and the sweep over them are
// scan.Words (internal/scan/words.go), which the live store's segments run
// too; Cascade adds the stage counters and the engine surface. See DESIGN
// §13 for the 3-bit packed arena, q-gram stage and banded verify this layout
// replaced, and why.
//
// All query-side state — the query's word and its compiled pattern — is
// built once per query; every per-candidate step allocates nothing. All the
// words are sound filters — they never reject a string within distance k —
// so the cascade returns exactly the matches a full scan would; the
// differential fuzz targets and the oracle tests enforce this.
//
// A Cascade is safe for concurrent Search/SearchContext calls: all
// per-query state lives on the query's stack, and the stage counters are
// atomic.
type Cascade struct {
	words *scan.Words
	name  string

	// Per-stage survivor counters, cumulative across queries.
	queries    atomic.Uint64
	candidates atomic.Uint64 // length-bucket survivors (slots of the windows)
	swept      atomic.Uint64 // slots in blocks the summaries let the sweep into
	passed     atomic.Uint64 // survivors of the first word
	survivors  atomic.Uint64 // survivors of every word == verify-kernel invocations
	matches    atomic.Uint64
}

// NewCascade builds a cascade searcher over data, packed into an arena of
// its own: length-bucketed, each bucket ordered by its words
// (scan.NewWords).
func NewCascade(data []string) *Cascade {
	c := &Cascade{words: scan.NewWords(data), name: "cascade/bytes"}
	if c.words.Counts() {
		c.name = "cascade/dna"
	}
	return c
}

// Search implements Searcher.
func (c *Cascade) Search(q Query) []Match {
	ms, _ := c.SearchContext(context.Background(), q)
	return ms
}

// SearchContext implements ContextSearcher: the slot sweep polls ctx once
// per block of candidates and returns ctx.Err() with partial results
// dropped. Stage counters are flushed on every exit path.
func (c *Cascade) SearchContext(ctx context.Context, q Query) ([]Match, error) {
	if q.K < 0 {
		return nil, nil
	}
	c.queries.Add(1)
	pr := scan.NewProbe(q.Text, q.K)
	ms, err := c.words.Sweep(ctx, &pr, make([]Match, 0, 16))
	c.candidates.Add(pr.Visited)
	c.swept.Add(pr.Swept)
	c.passed.Add(pr.Passed)
	c.survivors.Add(pr.Kept)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		return nil, nil // no match is nil, as from every other engine
	}
	c.matches.Add(uint64(len(ms)))
	return scan.MergeRuns(ms), nil
}

// Name implements Searcher; it carries the signature kind ("cascade/dna"
// for symbol counts, "cascade/bytes" for occurrence bits).
func (c *Cascade) Name() string { return c.name }

// Len implements Searcher.
func (c *Cascade) Len() int { return c.words.Arena().Len() }

// CascadeStats is a point-in-time snapshot of a cascade's layout and
// cumulative per-stage survivor counters; it is the /stats "cascade"
// section, where a stage whose survivors equal its input has stopped
// pruning.
type CascadeStats struct {
	Strings    int `json:"-"`
	ArenaBytes int `json:"arena_bytes"` // the arena's payload
	Buckets    int `json:"buckets"`     // non-empty length buckets

	Queries    uint64 `json:"queries"`
	Candidates uint64 `json:"candidates"` // survivors of the length bucket (slots of the windows)
	Swept      uint64 `json:"swept"`      // of those, the slots in blocks the summaries let the sweep into
	Passed     uint64 `json:"passed"`     // survivors of the first word; the second, where there is one, takes Survivors below it
	Survivors  uint64 `json:"survivors"`  // survivors of the signature stage = verify calls
	Matches    uint64 `json:"matches"`
}

// Stats returns the current snapshot.
func (c *Cascade) Stats() CascadeStats {
	ar := c.words.Arena()
	return CascadeStats{
		Strings:    ar.Len(),
		ArenaBytes: ar.Bytes(),
		Buckets:    ar.Buckets(),
		Queries:    c.queries.Load(),
		Candidates: c.candidates.Load(),
		Swept:      c.swept.Load(),
		Passed:     c.passed.Load(),
		Survivors:  c.survivors.Load(),
		Matches:    c.matches.Load(),
	}
}

// Describe reports Stats as the /stats "cascade" section.
func (c *Cascade) Describe() (string, any) { return "cascade", c.Stats() }

// RegisterMetrics exposes the cascade's cumulative counters on reg (picked
// up by the httpapi decorator-chain walk, or, under the sharded executor,
// registered per shard under a shard label). The per-stage survivor counts
// make the cascade observable in production: a stage whose survivors track
// its input has stopped pruning.
func (c *Cascade) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("simsearch_cascade_queries_total",
		"queries answered by the cascade engine",
		func() float64 { return float64(c.queries.Load()) })
	stage := func(name string, n *atomic.Uint64) {
		reg.CounterFunc("simsearch_cascade_stage_survivors_total",
			"candidates surviving each cascade stage, cumulative across queries",
			func() float64 { return float64(n.Load()) }, metrics.L("stage", name))
	}
	// "block" is what the block summaries leave of the length window;
	// "frequency" is the first word on either kind of corpus; "qgram" is the
	// 4-gram set behind it on reads (q = 4) and reads the same elsewhere.
	// The label is kept because the fixed benchmark reads it.
	stage("length", &c.candidates)
	stage("block", &c.swept)
	stage("frequency", &c.passed)
	stage("qgram", &c.survivors)
	stage("verify", &c.matches)
}
