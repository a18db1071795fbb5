// The BitParallel rung: the arena packed with its signature words
// (words.go), every query compiled once into a Probe and answered by the
// words sweep, and with Workers > 1 one query's window chunked across a
// pool for intra-query parallelism.
package scan

import (
	"context"
	"sync/atomic"

	"simsearch/internal/pool"
)

// bitParallelMinSlots is the smallest candidate window worth chunking across
// the pool; below it the goroutine handoff costs more than the scan. Package
// variable so tests can force the parallel path on small datasets.
var bitParallelMinSlots = 4096

// bitParallelChunksPerWorker oversubscribes the chunk count so a worker that
// draws short strings does not leave the others idle at the barrier.
const bitParallelChunksPerWorker = 4

// searchBitParallel answers one query on the BitParallel rung: a Probe, the
// words sweep over the query's length window at slack k, and mergeRuns to
// put the slot-ordered matches in ID order. With Workers > 1 and a window of
// at least bitParallelMinSlots, the window is cut into chunks of whole
// sweep groups (ctxStride slots, one uint64 of block masks, counted from the
// window's first block), and each chunk is swept on the pool with a probe of
// its own. The comparison counter receives the slots whose bytes were read.
func (e *Engine) searchBitParallel(ctx context.Context, q Query) ([]Match, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pr := NewProbe(q.Text, q.K)
	lo, hi := e.words.ar.SlotRange(pr.Lengths())
	if e.workers <= 1 || int(hi-lo) < bitParallelMinSlots {
		ms, err := e.words.Sweep(ctx, &pr, q.K, nil)
		e.count(pr.Kept)
		if err != nil {
			return nil, err
		}
		return mergeRuns(ms), nil
	}
	base := lo &^ (blockSlots - 1)
	groups := int(hi-base+ctxStride-1) / ctxStride
	nc := min(e.workers*bitParallelChunksPerWorker, groups)
	per := make([][]Match, nc)
	var kept atomic.Uint64
	err := pool.RunContext(ctx, pool.Fixed{Workers: e.workers}, nc, func(ci int) {
		clo := max(base+int32(ci*groups/nc)*ctxStride, lo)
		chi := min(base+int32((ci+1)*groups/nc)*ctxStride, hi)
		cp := pr.fork()
		// A cancelled chunk leaves per[ci] partial; RunContext then returns
		// an error and the buffers are never read.
		per[ci], _ = e.words.sweep(ctx, &cp, q.K, clo, chi, nil)
		kept.Add(cp.Kept)
	})
	// On cancellation this counts the chunks that got that far.
	e.count(kept.Load())
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
	// Chunks cover the window in slot order, so the concatenation is what
	// one sweep of the whole window returns.
	return mergeRuns(out), nil
}

// count adds n kernel calls to the comparison counter, if there is one.
func (e *Engine) count(n uint64) {
	if e.comps != nil {
		e.comps.Add(n)
	}
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
	if e.words == nil {
		return ArenaStats{}, false
	}
	ar := e.words.Arena()
	return ArenaStats{
		Strings: ar.Len(),
		Bytes:   ar.Bytes(),
		Buckets: ar.Buckets(),
	}, true
}

// Workers returns the configured pool size (0 means unset).
func (e *Engine) Workers() int { return e.workers }
