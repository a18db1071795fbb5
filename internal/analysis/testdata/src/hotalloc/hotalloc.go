// Package edit is a hotalloc fixture: it is loaded under the import path
// simsearch/internal/edit so the path-scoped analyzer fires, and its local
// step function doubles as the "call into internal/edit" that marks a loop
// as a kernel loop.
package edit

import "fmt"

// step stands in for a distance-kernel call: a static call into this package
// marks the enclosing loop as a kernel loop.
func step(prev []int, c byte) int {
	if len(prev) == 0 {
		return int(c)
	}
	return prev[0] + int(c)
}

// bytesPerElement converts string->[]byte once per compared element.
func bytesPerElement(words []string) int {
	n := 0
	for _, w := range words {
		b := []byte(w) // want "conversion inside an innermost kernel loop"
		n += len(b)
	}
	return n
}

// stringPerElement converts []byte->string once per compared element.
func stringPerElement(rows [][]byte) int {
	n := 0
	for _, r := range rows {
		s := string(r) // want "conversion inside an innermost kernel loop"
		n += len(s)
	}
	return n
}

// closurePerElement allocates a closure once per element.
func closurePerElement(words []string) int {
	n := 0
	for _, w := range words {
		score := func() int { return len(w) } // want "closure allocated inside an innermost kernel loop"
		n += score()
	}
	return n
}

// scratchPerElement allocates a scratch buffer and formats per element in a
// loop that does kernel work.
func scratchPerElement(rows [][]int) string {
	out := ""
	for _, prev := range rows {
		buf := make([]int, 8) // want "make inside an innermost kernel loop"
		buf[0] = step(prev, 'x')
		out = fmt.Sprint(buf[0]) // want "fmt\.Sprint inside an innermost kernel loop"
	}
	return out
}

// decodeLoop is a cold loop (no kernel call): fmt and make are allowed, the
// serialization shape.
func decodeLoop(rows [][]int) (string, error) {
	out := ""
	for _, r := range rows {
		buf := make([]int, 4)
		if len(r) > len(buf) {
			return "", fmt.Errorf("row too wide: %d", len(r))
		}
		out = fmt.Sprint(len(r))
	}
	return out, nil
}

// outerScratch hoists its buffer into the outer loop, which is not innermost
// and therefore not checked; the innermost loop itself is clean.
func outerScratch(rows [][]int) int {
	n := 0
	for _, r := range rows {
		buf := make([]int, len(r))
		for i, v := range r {
			buf[i] = v + step(r, 'x')
		}
		n += buf[0]
	}
	return n
}

// makeRow hides a per-call allocation: the make sits at a guard-free
// position, so every call from a kernel loop pays it.
func makeRow(n int) []int {
	return make([]int, n)
}

// hiddenAllocPerElement calls makeRow from a kernel loop — the allocation
// is one call deep, which the call-graph summary surfaces.
func hiddenAllocPerElement(rows [][]int) int {
	n := 0
	for _, prev := range rows {
		buf := makeRow(8) // want "hides an allocation one call deep"
		buf[0] = step(prev, 'x')
		n += buf[0]
	}
	return n
}

// growIfNeeded allocates only under a capacity guard: calling it per
// element is the amortized-growth idiom and stays legal.
func growIfNeeded(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// guardedCalleePerElement calls the guarded allocator from a kernel loop:
// no finding, the summary sees the guard.
func guardedCalleePerElement(rows [][]int) int {
	n := 0
	scratch := []int(nil)
	for _, prev := range rows {
		scratch = growIfNeeded(scratch, 8)
		scratch[0] = step(prev, 'x')
		n += scratch[0]
	}
	return n
}

// suppressedConversion demonstrates an explained suppression.
func suppressedConversion(words []string) int {
	n := 0
	for _, w := range words {
		//lint:ignore hotalloc fixture: cold path, conversion is deliberate
		b := []byte(w)
		n += len(b)
	}
	return n
}

// slotKey is what a kernel package's build code sorts a length bucket by.
type slotKey struct {
	key uint64
	id  int32
}

// cmpSlotKey is a top-level comparison function: passing it allocates
// nothing, wherever the call sits.
func cmpSlotKey(a, b slotKey) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return int(a.id - b.id)
}

// sortFunc stands in for slices.SortFunc.
func sortFunc(s []slotKey, cmp func(a, b slotKey) int) {
	for i := 1; i < len(s); i++ {
		if cmp(s[i-1], s[i]) > 0 {
			s[i-1], s[i] = s[i], s[i-1]
		}
	}
}

// sortBucketsClosure orders every length bucket with a comparator written in
// place: the per-bucket loop is innermost, and the closure is allocated once
// per bucket.
func sortBucketsClosure(order []slotKey, lenStart []int) {
	for l := 0; l+1 < len(lenStart); l++ {
		sortFunc(order[lenStart[l]:lenStart[l+1]], func(a, b slotKey) int { // want "closure allocated inside an innermost kernel loop"
			return int(a.key) - int(b.key)
		})
	}
}

// sortBucketsTopLevel is the same loop with the comparison function named:
// build code in a kernel package sorts this way.
func sortBucketsTopLevel(order []slotKey, lenStart []int) {
	for l := 0; l+1 < len(lenStart); l++ {
		sortFunc(order[lenStart[l]:lenStart[l+1]], cmpSlotKey)
	}
}

// maskedGroups is the word sweep's shape: per group of sixty-four summary
// blocks a branch-free loop folds the block tests into one mask, and the
// survivors of the blocks it keeps go through the kernel out of a scratch
// array that lives outside every loop. Nothing in it allocates.
func maskedGroups(sums []uint64, rows [][]int, q uint64) int {
	n := 0
	var surv [64]int
	for g := 0; g < len(sums); g += 64 {
		var mask uint64
		for j, s := range sums[g:min(g+64, len(sums))] {
			mask |= (s & q >> 63) << j
		}
		if mask == 0 {
			continue
		}
		m := 0
		for j := 0; mask != 0; j, mask = j+1, mask>>1 {
			surv[m] = g + j
			m += int(mask & 1)
		}
		for _, i := range surv[0:m] {
			n += step(rows[i%len(rows)], 'x')
		}
	}
	return n
}

// maskedGroupsScratchPerGroup allocates the survivor scratch once per kept
// block inside the loop that calls the kernel.
func maskedGroupsScratchPerGroup(sums []uint64, rows [][]int, q uint64) int {
	n := 0
	for g := 0; g < len(sums); g += 64 {
		var mask uint64
		for j, s := range sums[g:min(g+64, len(sums))] {
			mask |= (s & q >> 63) << j
		}
		for j := 0; mask != 0; j, mask = j+1, mask>>1 {
			surv := make([]int, 1) // want "make inside an innermost kernel loop"
			surv[0] = g + j
			n += step(rows[surv[0]%len(rows)], 'x') * int(mask&1)
		}
	}
	return n
}
