// Package scan is a ctxpoll fixture: it is loaded under the import path
// simsearch/internal/scan so the path-scoped analyzer fires. Each function
// exercises one compliant or non-compliant shape of the cancellation-polling
// invariant.
package scan

import "context"

// kernel is the shape of a per-pair comparison function: the analyzer treats
// a call through a func-typed variable with string operands as comparison
// work.
type kernel func(a, b string, k int) (int, bool)

// searchNoPoll holds a context but never looks at it inside the comparison
// loop — the canonical violation.
func searchNoPoll(ctx context.Context, data []string, dist kernel) int {
	n := 0
	for _, s := range data { // want "never polls cancellation"
		if _, ok := dist("query", s, 1); ok {
			n++
		}
	}
	return n
}

// searchSelectDone polls with a strided select on ctx.Done().
func searchSelectDone(ctx context.Context, data []string, dist kernel) int {
	n := 0
	for i, s := range data {
		if i%1024 == 0 {
			select {
			case <-ctx.Done():
				return n
			default:
			}
		}
		if _, ok := dist("query", s, 1); ok {
			n++
		}
	}
	return n
}

// searchCancelChan polls a raw cancel channel instead of a context.
func searchCancelChan(cancel chan struct{}, data []string, dist kernel) int {
	n := 0
	for _, s := range data {
		select {
		case <-cancel:
			return n
		default:
		}
		if _, ok := dist("query", s, 1); ok {
			n++
		}
	}
	return n
}

// searchErrPoll polls with ctx.Err().
func searchErrPoll(ctx context.Context, data []string, dist kernel) int {
	n := 0
	for _, s := range data {
		if ctx.Err() != nil {
			return n
		}
		if _, ok := dist("query", s, 1); ok {
			n++
		}
	}
	return n
}

// searchDelegate hands the context to a callee every iteration; polling is
// the callee's job (the executor's shard fan-out shape).
func searchDelegate(ctx context.Context, data []string, dist kernel) int {
	n := 0
	for _, s := range data {
		if _, ok := dist("query", s, 1); ok {
			n++
		}
		emit(ctx, n)
	}
	return n
}

func emit(ctx context.Context, n int) {
	_ = ctx
	_ = n
}

// searchClosure uses the scan package's strided check() closure pattern.
func searchClosure(ctx context.Context, data []string, dist kernel) int {
	n := 0
	done := ctx.Done()
	check := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	for i, s := range data {
		if i%1024 == 0 && check() {
			return n
		}
		if _, ok := dist("query", s, 1); ok {
			n++
		}
	}
	return n
}

// searchBlocked is the block-strided sweep: the outer loop polls once per
// block and the inner loop ranges over that block alone.
func searchBlocked(ctx context.Context, data []string, dist kernel) int {
	n := 0
	for blk := 0; blk < len(data); blk += 1024 {
		if ctx.Err() != nil {
			return n
		}
		for _, s := range data[blk:min(blk+1024, len(data))] {
			if _, ok := dist("query", s, 1); ok {
				n++
			}
		}
	}
	return n
}

// searchBlockedWholeSlice polls in the outer loop, but its inner loop ranges
// over all of data, not over one block: the poll bounds nothing.
func searchBlockedWholeSlice(ctx context.Context, data []string, dist kernel) int {
	n := 0
	for blk := 0; blk < len(data); blk += 1024 {
		if ctx.Err() != nil {
			return n
		}
		for _, s := range data { // want "never polls cancellation"
			if _, ok := dist("query", s, 1); ok {
				n++
			}
		}
	}
	return n
}

// searchBlockedNoPoll has the block shape without the poll.
func searchBlockedNoPoll(ctx context.Context, data []string, dist kernel) int {
	n := 0
	for blk := 0; blk < len(data); blk += 1024 { // want "never polls cancellation"
		for _, s := range data[blk:min(blk+1024, len(data))] { // want "never polls cancellation"
			if _, ok := dist("query", s, 1); ok {
				n++
			}
		}
	}
	return n
}

// searchPlain has no cancellation signal in scope: the plain Search path is
// cancelled by abandonment at the core layer, so it is out of scope.
func searchPlain(data []string, dist kernel) int {
	n := 0
	for _, s := range data {
		if _, ok := dist("query", s, 1); ok {
			n++
		}
	}
	return n
}

// count holds a context but its loop does no comparison work, so no poll is
// required.
func count(ctx context.Context, data []string) int {
	if ctx.Err() != nil {
		return 0
	}
	n := 0
	for _, s := range data {
		n += len(s)
	}
	return n
}

// searchIgnored demonstrates an explained suppression on the line above the
// flagged loop.
func searchIgnored(ctx context.Context, data []string, dist kernel) int {
	n := 0
	//lint:ignore ctxpoll fixture: bounded input, cancellation handled by the caller
	for _, s := range data {
		if _, ok := dist("query", s, 1); ok {
			n++
		}
	}
	return n
}

// Probe stands in for scan.Probe, the compiled query the sweeps hand their
// candidates to: a call to one of its methods is comparison work, like a
// call into internal/edit.
type Probe struct{ k, queued int }

// add stands in for the probe's queue: it takes a candidate's offset, length
// and ID and reports whether the queue is due for its flush.
func (pr *Probe) add(off, n int, id int32) bool {
	pr.queued++
	return pr.queued == 8 || n <= pr.k
}

// probeNoPoll is the loose strings' sweep (scan.Loose.Sweep) with its poll
// forgotten.
func probeNoPoll(ctx context.Context, pr *Probe, data []string) int {
	n := 0
	for i, s := range data { // want "never polls cancellation"
		if pr.add(0, len(s), int32(i)) {
			n++
		}
	}
	return n
}

// probeStrided is the loose strings' sweep as written: ctx.Err() every 1024
// entries.
func probeStrided(ctx context.Context, pr *Probe, data []string) int {
	n := 0
	for i, s := range data {
		if i%1024 == 1023 && ctx.Err() != nil {
			return n
		}
		if pr.add(0, len(s), int32(i)) {
			n++
		}
	}
	return n
}

// searchMaskedGroups is the word sweep over block summaries: the outer loop
// walks groups of sixty-four blocks and polls once per group; a branch-free
// loop folds the group's summary tests into a mask (no comparison work, no
// poll needed), a group whose mask is zero is skipped after its poll, and
// the survivors of the kept blocks are compared out of one block-sized
// slice of a scratch array.
func searchMaskedGroups(ctx context.Context, sums []uint64, data []string, q uint64, dist kernel) int {
	n := 0
	var surv [1024]int
	for g := 0; g < len(sums); g += 64 {
		if ctx.Err() != nil {
			return n
		}
		var mask uint64
		for j, s := range sums[g:min(g+64, len(sums))] {
			mask |= (s & q >> 63) << j
		}
		if mask == 0 {
			continue
		}
		m := 0
		for j := 0; mask != 0; j, mask = j+1, mask>>1 {
			surv[m] = (g + j) * 16
			m += int(mask & 1)
		}
		for _, i := range surv[0:m] {
			if _, ok := dist("query", data[i%len(data)], 1); ok {
				n++
			}
		}
	}
	return n
}

// searchMaskedGroupsNoPoll has the masked-group shape and never polls: a
// mask that skips most groups does not bound how long the rest takes.
func searchMaskedGroupsNoPoll(ctx context.Context, sums []uint64, data []string, q uint64, dist kernel) int {
	n := 0
	var surv [1024]int
	for g := 0; g < len(sums); g += 64 { // want "never polls cancellation"
		var mask uint64
		for j, s := range sums[g:min(g+64, len(sums))] {
			mask |= (s & q >> 63) << j
		}
		if mask == 0 {
			continue
		}
		m := 0
		for j := 0; mask != 0; j, mask = j+1, mask>>1 {
			surv[m] = (g + j) * 16
			m += int(mask & 1)
		}
		for _, i := range surv[0:m] { // want "never polls cancellation"
			if _, ok := dist("query", data[i%len(data)], 1); ok {
				n++
			}
		}
	}
	return n
}

// searchMaskedGroupsPollAfterSkip polls only on the groups it enters — after
// the `continue` — which is still once per group that does any comparing.
func searchMaskedGroupsPollAfterSkip(ctx context.Context, sums []uint64, data []string, q uint64, dist kernel) int {
	n := 0
	var surv [1024]int
	for g := 0; g < len(sums); g += 64 {
		var mask uint64
		for j, s := range sums[g:min(g+64, len(sums))] {
			mask |= (s & q >> 63) << j
		}
		if mask == 0 {
			continue
		}
		if ctx.Err() != nil {
			return n
		}
		m := 0
		for j := 0; mask != 0; j, mask = j+1, mask>>1 {
			surv[m] = (g + j) * 16
			m += int(mask & 1)
		}
		for _, i := range surv[0:m] {
			if _, ok := dist("query", data[i%len(data)], 1); ok {
				n++
			}
		}
	}
	return n
}
