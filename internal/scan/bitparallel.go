// The BitParallel rung: query compiled once, arena streamed through it,
// optionally chunked across workers for intra-query parallelism.
package scan

import (
	"bytes"
	"context"

	"simsearch/internal/edit"
	"simsearch/internal/pool"
)

// bitParallelMinSlots is the smallest candidate window worth chunking across
// the pool; below it the goroutine handoff costs more than the scan. Package
// variable so tests can force the parallel path on small datasets.
var bitParallelMinSlots = 4096

// bitParallelChunksPerWorker oversubscribes the chunk count so a worker that
// draws short strings does not leave the others idle at the barrier.
const bitParallelChunksPerWorker = 4

// searchBitParallel answers one query on the BitParallel rung. The pattern is
// compiled once, the arena's length-filtered slot range is selected in O(1),
// and with Workers > 1 the range is chunked across a fixed pool. Results are
// ID-ordered by construction: slots are ordered (length, ID), so every scan
// emits a concatenation of ID-ascending runs that mergeRuns folds together.
func (e *Engine) searchBitParallel(ctx context.Context, q Query) ([]Match, error) {
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	p := edit.CompileMyers(q.Text)
	lo, hi := e.arena.SlotRange(len(q.Text)-q.K, len(q.Text)+q.K)
	n := int(hi - lo)
	if n == 0 {
		return nil, nil
	}
	if e.workers <= 1 || n < bitParallelMinSlots {
		ms, ok := e.scanSlots(p, q.K, lo, hi, cancel)
		if !ok {
			return nil, ctx.Err()
		}
		return mergeRuns(ms), nil
	}
	nc := e.workers * bitParallelChunksPerWorker
	if nc > n {
		nc = n
	}
	per := make([][]Match, nc)
	err := pool.RunContext(ctx, pool.Fixed{Workers: e.workers}, nc, func(ci int) {
		clo := lo + int32(ci*n/nc)
		chi := lo + int32((ci+1)*n/nc)
		// A cancelled chunk leaves per[ci] partial; RunContext then returns
		// an error and the buffers are never read.
		per[ci], _ = e.scanSlots(p, q.K, clo, chi, cancel)
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, ms := range per {
		total += len(ms)
	}
	out := make([]Match, 0, total)
	for _, ms := range per {
		out = append(out, ms...)
	}
	// Chunks cover the slot range in order, so the concatenation is still a
	// concatenation of ID-ascending runs (a bucket split by a chunk boundary
	// does not even introduce a descent).
	return mergeRuns(out), nil
}

// scanSlots streams the engine's arena slots [lo, hi) through the compiled
// pattern; see scanArenaSlots.
func (e *Engine) scanSlots(p *edit.MyersPattern, k int, lo, hi int32, cancel <-chan struct{}) ([]Match, bool) {
	return scanArenaSlots(e.arena, e.comps, p, k, lo, hi, cancel)
}

// scanArenaSlots streams arena slots [lo, hi) through the compiled pattern,
// polling cancel every ctxStride comparisons. It reports ok=false when
// cancelled mid-scan. Each call owns its scratch, so concurrent chunk scans
// never share kernel state; the comparison count is flushed once per call.
// This is the bare sweep, the BitParallel rung's alone: it builds no
// signature words and reads none (see words.go for the sweep that does, and
// DESIGN §12 for why this rung keeps going without).
func scanArenaSlots(a *Arena, comps CompCounter, p *edit.MyersPattern, k int, lo, hi int32, cancel <-chan struct{}) ([]Match, bool) {
	var ms []Match
	var pairs uint64
	if comps != nil {
		defer func() { comps.Add(pairs) }()
	}
	var scratch edit.MyersScratch
	var exact []byte // the query's bytes when k = 0: distance 0 is byte equality, no kernel to enter
	if k == 0 {
		exact = []byte(p.Text())
	}
	// Bucket by bucket: inside one every slot has the same stride, so the
	// candidate's bytes are found by addition, with no per-slot offset load.
	for s, l := lo, a.slotLen(lo); s < hi; l++ {
		end := min(a.lenStart[l+1], hi)
		off := int(a.lenOff[l]) + int(s-a.lenStart[l])*l
		for ; s < end; s++ {
			if cancel != nil && pairs%ctxStride == ctxStride-1 {
				select {
				case <-cancel:
					return ms, false
				default:
				}
			}
			pairs++
			cand := a.buf[off : off+l]
			off += l
			if k == 0 {
				if bytes.Equal(cand, exact) {
					ms = append(ms, Match{ID: a.ids[s]})
				}
				continue
			}
			if d, ok := p.BoundedDistanceBytes(cand, k, &scratch); ok {
				ms = append(ms, Match{ID: a.ids[s], Dist: d})
			}
		}
	}
	return ms, true
}

// ArenaStats describes the BitParallel packed layout for observability
// surfaces (/stats).
type ArenaStats struct {
	Strings int // packed strings
	Bytes   int // packed buffer size
	Buckets int // non-empty length buckets
}

// ArenaStats returns the packed-layout statistics, or ok=false when the
// engine is not on the BitParallel rung.
func (e *Engine) ArenaStats() (ArenaStats, bool) {
	if e.arena == nil {
		return ArenaStats{}, false
	}
	return ArenaStats{
		Strings: e.arena.Len(),
		Bytes:   e.arena.Bytes(),
		Buckets: e.arena.Buckets(),
	}, true
}

// Workers returns the configured pool size (0 means unset).
func (e *Engine) Workers() int { return e.workers }
