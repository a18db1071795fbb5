// Strings that sit in no arena, laid out for the probe's queue the way an
// arena's slots are: the live store's delta (internal/lsm) is one.
package scan

import (
	"cmp"
	"context"
	"slices"

	"simsearch/internal/edit"
)

// Loose is a mutable set of strings swept like an arena. Add copies a
// string's bytes once into one buffer, which always keeps edit.LanePad zero
// bytes past its last string, and records an entry for it in (length, ID)
// order with its word, whose kind the string's own bytes pick: symbol counts
// when all of them are A, C, G, N or T, occurrence bits otherwise. Remove
// drops the entry; its bytes stay in the buffer until they and those of
// other removed strings outweigh the entries', when the next Add packs the
// buffer anew: a string added and removed over and over costs no more than
// once. The zero Loose is empty. Add and Remove must not run beside a Sweep;
// Sweeps may run beside each other, each with its own probe.
type Loose struct {
	buf     []byte
	entries []looseEntry // in (length, ID) order
	held    int          // the bytes of buf that entries name
}

// looseEntry is one string of a Loose: where its bytes are, and what rejects
// it unread — its length for the length window and its word.
type looseEntry struct {
	n, id  int32
	off    int // of its bytes in Loose.buf
	word   uint64
	counts bool // the word holds symbol counts, not occurrence bits
}

// find returns the entries' insertion point for (n, id), in (length, ID)
// order, and whether an entry is there.
func (l *Loose) find(n, id int32) (int, bool) {
	return slices.BinarySearchFunc(l.entries, looseEntry{n: n, id: id}, func(a, b looseEntry) int {
		return cmp.Or(cmp.Compare(a.n, b.n), cmp.Compare(a.id, b.id))
	})
}

// Add puts s into the set under ID id, which the set must not hold.
func (l *Loose) Add(id int32, s string) {
	if len(l.buf)-l.held > l.held {
		l.pack()
	}
	e := looseEntry{n: int32(len(s)), id: id, off: len(l.buf)}
	if allDNA(s) {
		e.word, e.counts = countWord(s), true
	} else {
		e.word = signature(s)
	}
	l.buf = append(slices.Grow(l.buf, len(s)+edit.LanePad), s...)
	clear(l.buf[len(l.buf) : len(l.buf)+edit.LanePad])
	i, _ := l.find(e.n, id)
	l.entries = slices.Insert(l.entries, i, e)
	l.held += len(s)
}

// Remove drops the string with ID id, n bytes long, from the set.
func (l *Loose) Remove(id int32, n int) {
	if i, ok := l.find(int32(n), id); ok {
		l.entries = slices.Delete(l.entries, i, i+1)
		l.held -= n
	}
}

// pack copies the entries' bytes into a new buffer, leaving out those of
// removed strings.
func (l *Loose) pack() {
	buf := make([]byte, 0, l.held+edit.LanePad)
	for i := range l.entries {
		e := &l.entries[i]
		e.off, buf = len(buf), append(buf, l.buf[e.off:e.off+int(e.n)]...)
	}
	l.buf = buf
}

// Sweep appends to dst every string of the set within the probe's k of its
// query, as matches in (length, ID) order: a concatenation of ID-ascending
// runs, one per length, for MergeRuns to put in order, as Words.Sweep's are.
// It holds each entry of the length window against the query's word of the
// entry's kind, hands the probe's queue the rest as offsets into the set's
// buffer and flushes the queue at its end. It polls ctx every ctxStride
// entries. The probe's counters are left alone: they count arena slots.
func (l *Loose) Sweep(ctx context.Context, pr *Probe, dst []Match) ([]Match, error) {
	lo, hi := pr.lengths()
	pr.buf = l.buf[:cap(l.buf)] // Add and pack leave edit.LanePad zero bytes past the last string
	i, _ := l.find(int32(lo), 0)
	for ; i < len(l.entries) && int(l.entries[i].n) <= hi; i++ {
		if i%ctxStride == ctxStride-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		e := &l.entries[i]
		if pr.rejects(e.word, e.counts) {
			continue
		}
		if pr.add(e.off, int(e.n), e.id) {
			dst = pr.flush(dst)
		}
	}
	return pr.flush(dst), nil
}
