// The byte backend: for datasets that are not pure DNA the cascade is
//
//	length bucket -> one signature word -> band kernel
//
// over a scan.Arena it does not own: the arena's slots give the length
// window and the packed bytes, this file adds one precomputed uint64 per
// slot. The sweep reads only that slab; the bytes of a candidate are touched
// when its signature survives.
package cascade

import (
	"bytes"
	"context"
	"math/bits"

	"simsearch/internal/edit"
	"simsearch/internal/scan"
)

// byteArena is the byte-backend candidate layout: a scan arena, possibly
// shared with a scan engine over the same data, plus its signature slab.
type byteArena struct {
	ar   *scan.Arena
	sigs []uint64 // sigs[s] = signature of slot s
}

// signature folds a string into one word of counted occurrences: the byte
// value picks one of 32 buckets (b & 31), bit i says bucket i occurs at
// least once, bit 32+i at least twice.
//
// The filter built on it (sigReject) is sound. One edit operation lowers at
// most one bucket's count by one and raises at most one by one, and a count
// moving by one flips at most one of that bucket's two unary bits, so strings
// within distance k differ in at most k bits on each side:
// popcount(a &^ b) <= k and popcount(b &^ a) <= k. Folding 256 byte values
// into 32 buckets and saturating the count at 2 only merge or drop bits; they
// can hide a difference, never invent one.
func signature[T string | []byte](s T) uint64 {
	var sig uint64
	for i := 0; i < len(s); i++ {
		once := uint64(1) << (s[i] & 31)
		sig |= once | (sig&once)<<32
	}
	return sig
}

// sigReject reports whether two signatures differ in more than slack bits on
// either side, which no pair of strings within slack edits can.
func sigReject(a, b uint64, slack int) bool {
	return bits.OnesCount64(a&^b) > slack || bits.OnesCount64(b&^a) > slack
}

// buildByteArena computes every slot's signature over ar.
func buildByteArena(ar *scan.Arena) *byteArena {
	ba := &byteArena{ar: ar, sigs: make([]uint64, ar.Len())}
	for s := range ba.sigs {
		ba.sigs[s] = signature(ar.SlotBytes(int32(s)))
	}
	return ba
}

// searchBytes runs the cascade over the byte arena. The length window is a
// slot range; the sweep walks its signatures in blocks of ctxStride, polling
// ctx once per block, and only a survivor's bytes are looked up and handed
// to the kernel (byte equality at k = 0). Stage counters are flushed on
// every exit path.
func (e *Engine) searchBytes(ctx context.Context, q string, k int) ([]Match, error) {
	ba := e.bytes
	lo, hi := ba.ar.SlotRange(len(q)-k, len(q)+k)
	var visited, kept uint64
	defer func() {
		e.candidates.Add(visited)
		e.freqSurvivors.Add(kept)
		e.qgramSurvivors.Add(kept)
		if e.comps != nil {
			e.comps.Add(kept)
		}
	}()
	if lo == hi {
		return nil, nil
	}
	sq := signature(q)
	slack := k // signature bits that may differ on either side
	if e.noFreq {
		slack = 64
	}
	var p *edit.MyersPattern
	var scratch *edit.MyersScratch
	var exact []byte // the query's bytes when k = 0: distance 0 is byte equality, no kernel to enter
	if k == 0 {
		exact = []byte(q)
	} else {
		p, scratch = edit.CompileMyers(q), new(edit.MyersScratch)
	}
	ms := make([]Match, 0, 16)
	for blk := lo; blk < hi; blk += ctxStride {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := min(blk+ctxStride, hi)
		visited += uint64(end - blk)
		for i, sx := range ba.sigs[blk:end] {
			if sigReject(sq, sx, slack) {
				continue
			}
			kept++
			s := blk + int32(i)
			xb := ba.ar.SlotBytes(s)
			if k == 0 {
				if bytes.Equal(xb, exact) {
					ms = append(ms, Match{ID: ba.ar.SlotID(s)})
				}
				continue
			}
			if d, ok := p.BoundedDistanceBytes(xb, k, scratch); ok {
				ms = append(ms, Match{ID: ba.ar.SlotID(s), Dist: d})
			}
		}
	}
	e.matches.Add(uint64(len(ms)))
	return scan.MergeRuns(ms), nil
}
