package scan

import (
	"bufio"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"simsearch/internal/cpu"
	"simsearch/internal/dataset"
)

// vpopcnt is whether the AVX-512 heads can run here: what vpopcntKernels
// is set to at init, before any test flips it.
var vpopcnt = cpu.X86.POPCNT && cpu.X86.VPOPCNTDQ && cpu.X86.AVX512BW

// eachHead runs f once on the scalar kernels and once with their AVX-512
// heads, which it skips where the CPU or the OS lacks them; it restores
// vpopcntKernels after each.
func eachHead(t *testing.T, f func(t *testing.T)) {
	if !popcntKernels {
		t.Skip("no POPCNT kernels on this CPU: the Go loops are the only path")
	}
	for _, head := range []bool{false, true} {
		t.Run(map[bool]string{false: "scalar", true: "avx512"}[head], func(t *testing.T) {
			if head && !vpopcnt {
				t.Skip("no AVX512F, AVX512_VPOPCNTDQ and AVX512BW on this CPU, or the OS does not save their state")
			}
			defer func(v bool) { vpopcntKernels = v }(vpopcntKernels)
			vpopcntKernels = head
			f(t)
		})
	}
}

// nearWord draws one of the word kinds — zero, all ones, one bit, random —
// or sq with up to four bits flipped; with sparse set, nine in ten draws are
// random words, which hardly ever pass, as on names.
func nearWord(r *rand.Rand, sq uint64, sparse bool) uint64 {
	if sparse && r.Intn(10) != 0 {
		return r.Uint64()
	}
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	case 2:
		return 1 << r.Intn(64)
	case 3:
		return r.Uint64()
	}
	for i := r.Intn(5); i > 0; i-- {
		sq ^= 1 << r.Intn(64)
	}
	return sq
}

// sumsOf draws the ORs and ANDs of nb blocks, words near sq, each AND
// inside its OR but one in four not, which the kernels must not rely on
// either.
func sumsOf(r *rand.Rand, nb int, sq uint64, sparse bool) (hi, lo []uint64) {
	hi, lo = make([]uint64, nb), make([]uint64, nb)
	for j := range hi {
		hi[j] = nearWord(r, sq, sparse)
		lo[j] = hi[j] & nearWord(r, sq, sparse)
		if r.Intn(4) == 0 {
			lo[j] = nearWord(r, sq, sparse)
		}
	}
	return hi, lo
}

// checkGroup holds occGroupPOPCNT to occGroup on one group, with room for
// exactly as many survivors as it has words to read, and that room ending
// where a guard region of the buffer starts: the kernel stores nothing
// outside it, and where it stores, what the Go loop stores.
func checkGroup(t *testing.T, words []uint64, mask uint64, from int, sq uint64, slack int) {
	t.Helper()
	const guard = 16
	var goSurv, asmSurv [ctxStride + guard]int32
	for i := range goSurv {
		goSurv[i], asmSurv[i] = -1, -1
	}
	read := groupRead(len(words), mask, from)
	want := occGroup(words, mask, from, goSurv[ctxStride-read:ctxStride], sq, slack)
	got := occGroupPOPCNT(words, mask, from, asmSurv[ctxStride-read:ctxStride], sq, slack)
	if got != want || asmSurv != goSurv {
		t.Fatalf("sq %#x slack %d, %d words from %d, mask %#x: the kernel kept %d, the Go loop %d, or stored elsewhere",
			sq, slack, len(words), from, mask, got, want)
	}
}

// groupMasks are the masks a group of nb blocks is tested under: none, all,
// one random, the first block alone, the last alone, and runs of two and of
// three with gaps between, as the summaries leave them on names.
func groupMasks(r *rand.Rand, nb int) []uint64 {
	all := ^uint64(0) >> (64 - nb)
	return []uint64{0, all, r.Uint64() & all, 1, 1 << (nb - 1), 0x6666666666666666 & all, 0x7171717171717171 & all}
}

// TestOccurrenceKernelsAgree: the POPCNT kernels, scalar and with their
// AVX-512 bodies, return exactly what the Go loops they stand in for return
// — blockMask's occurrence case (occMask) over 1 to 64 blocks, so that the
// last group of eight is cut at every lane and bit 63 is set and read, from
// block 0 and from a block past it (a plane read off by a block shows only
// there), and maskedWords' (occGroup) over groups of 1 to ctxStride words,
// so that every length mod 16 clamps the last block, under the masks of
// groupMasks and with the window starting at every lane of the first block,
// on dense and on sparse words — at slacks from 0 (equality) to unbounded;
// and on groups whose survivors are placed, one and two at every lane of the
// first, a middle and the last block, so that a body which loses a lane,
// reads one past a clamp or walks them out of order fails on every seed.
func TestOccurrenceKernelsAgree(t *testing.T) {
	eachHead(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(51))
		slacks := []int{0, 1, 2, 3, 8, 63, 64, math.MaxInt}
		var words [ctxStride]uint64
		for _, sq := range []uint64{0, math.MaxUint64, 1 << 63, r.Uint64()} {
			for _, slack := range slacks {
				for _, sparse := range []bool{false, true} {
					for nb := 1; nb <= groupBlocks; nb++ {
						hi, lo := sumsOf(r, nb, sq, sparse)
						for _, g := range []int{0, 1 + r.Intn(2*groupBlocks)} {
							checkBlockMask(t, r, false, g, g+nb+r.Intn(3), hi, lo, sq, slack)
						}
					}
					for i := range words {
						words[i] = nearWord(r, sq, sparse)
						if slack == 0 && r.Intn(4) == 0 {
							words[i] = sq // at slack 0 only equal words pass
						}
					}
					for size := 1; size <= ctxStride; size++ {
						group := words[r.Intn(ctxStride-size+1):][:size]
						masks := groupMasks(r, (size+blockSlots-1)/blockSlots)
						if size > 3*blockSlots { // one mask and one clamp each past three blocks
							checkGroup(t, group, masks[size%len(masks)], size/blockSlots%blockSlots, sq, slack)
							continue
						}
						for from := 0; from < min(blockSlots, size); from++ {
							for _, mask := range masks {
								checkGroup(t, group, mask, from, sq, slack)
							}
						}
					}
				}
			}
		}

		// Survivors placed: none, each one and each pair at every lane of
		// the first block (clamped to from), the middle one and the last
		// (clamped to five lanes), under all three blocks and the outer two.
		const size, sq = 2*blockSlots + 5, 0x00ff00ff00ff00ff
		group := make([]uint64, size)
		for _, slack := range []int{0, 2} {
			for _, from := range []int{0, 3} {
				for _, mask := range []uint64{7, 5} {
					for a := -1; a < size; a++ {
						for b := a; b < size; b++ {
							for i := range group {
								group[i] = sq ^ 7 // three bits off sq's side: past both slacks
								if i == a || i == b {
									group[i] = sq ^ uint64(slack|slack>>1) // slack bits off sq's side: a survivor
								}
							}
							checkGroup(t, group, mask, from, sq, slack)
						}
					}
					for i := range group {
						group[i] = sq
					}
					checkGroup(t, group, mask, from, sq, slack)
				}
			}
		}
	})
}

// FuzzOccurrenceKernels: for any query word, slack, seed, group length,
// mask, window start and summary count, both kernels, scalar and with their
// AVX-512 bodies, equal the Go loops. Groups are 1 to ctxStride words and
// masks keep only their blocks; summaries are 1 to 64 blocks, read through
// blockMask from block from on; the slack is 0 to 255 (from 64 on
// everything passes).
func FuzzOccurrenceKernels(f *testing.F) {
	f.Add(uint64(0x00ff00ff00ff00ff), uint8(3), int64(1), uint16(1024), ^uint64(0), uint8(0), uint8(64), false)
	f.Add(uint64(0), uint8(1), int64(2), uint16(15), uint64(1), uint8(9), uint8(9), true)
	f.Add(uint64(math.MaxUint64), uint8(0), int64(3), uint16(1023), uint64(0x8000000000000001), uint8(15), uint8(1), false)
	f.Fuzz(func(t *testing.T, sq uint64, slack uint8, seed int64, size uint16, mask uint64, from, blocks uint8, sparse bool) {
		if !popcntKernels {
			t.Skip("no POPCNT kernels on this CPU")
		}
		r := rand.New(rand.NewSource(seed))
		n, nb := 1+int(size)%ctxStride, 1+int(blocks)%groupBlocks
		group := make([]uint64, n)
		for i := range group {
			if group[i] = nearWord(r, sq, sparse); r.Intn(8) == 0 {
				group[i] = sq
			}
		}
		mask &= ^uint64(0) >> (64 - (n+blockSlots-1)/blockSlots)
		hi, lo := sumsOf(r, nb, sq, sparse)
		defer func(v bool) { vpopcntKernels = v }(vpopcntKernels)
		for _, head := range []bool{false, vpopcnt} {
			vpopcntKernels = head
			checkBlockMask(t, r, false, int(from), int(from)+nb+int(blocks)%3, hi, lo, sq, int(slack))
			checkGroup(t, group, mask, int(from)%min(blockSlots, n), sq, int(slack))
		}
	})
}

// nearCount draws a count word — every field at most fieldMax, as countWord
// leaves them and the kernels rely on — that is zero, saturated, random, or
// sq with up to three fields moved by up to d each: one field moved is a
// surplus on one side only.
func nearCount(r *rand.Rand, sq uint64, d int) uint64 {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return fieldMax * fieldOnes
	case 2:
		var x uint64
		for f := 0; f < dnaFields; f++ {
			x = setField(x, f, r.Intn(fieldMax+1))
		}
		return x
	}
	for i := r.Intn(3); i >= 0; i-- {
		f := r.Intn(dnaFields)
		sq = setField(sq, f, min(max(countField(sq, f)+r.Intn(2*d+1)-d, 0), fieldMax))
	}
	return sq
}

// flipGrams flips n of the bits of g that read on (fewer where g has fewer),
// picked at random: n grams taken away from g, or n added.
func flipGrams(r *rand.Rand, g gramSet, on bool, n int) gramSet {
	for _, b := range r.Perm(gramSetBits) {
		if n == 0 {
			break
		}
		if g[b/64]>>(b%64)&1 == 1 == on {
			g[b/64] ^= 1 << (b % 64)
			n--
		}
	}
	return g
}

// nearGrams draws a 4-gram set against gq and bound: gq itself, none, all,
// random, or gq with exactly bound or bound+1 of its grams taken away or
// added — the last admitted and the first rejected on that side — or both.
func nearGrams(r *rand.Rand, gq gramSet, bound int) gramSet {
	switch r.Intn(8) {
	case 0:
		return gq
	case 1:
		return gramSet{}
	case 2:
		return gramSet{1<<64 - 1, 1<<64 - 1, 1<<64 - 1, 1<<64 - 1}
	case 3:
		return gramSet{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	case 4:
		return flipGrams(r, gq, true, bound+r.Intn(2))
	case 5:
		return flipGrams(r, gq, false, bound+r.Intn(2))
	}
	return flipGrams(r, flipGrams(r, gq, true, r.Intn(bound+2)), false, r.Intn(bound+2))
}

// countGroupOf draws a group of size count words and 4-gram sets against sq
// and gq at slack, the sets in Words' layout with the last block's padding
// filled with noise, which no lane outside the group may let through.
func countGroupOf(r *rand.Rand, size int, sq uint64, gq gramSet, slack int) (words, grams []uint64, sets []gramSet) {
	d, bound := min(slack, fieldMax)+1, 4*min(slack, gramSetBits/4)
	words, sets = make([]uint64, size), make([]gramSet, size)
	grams = make([]uint64, 4*blockSlots*((size+blockSlots-1)/blockSlots))
	for i := range grams {
		grams[i] = r.Uint64()
	}
	for i := range words {
		words[i], sets[i] = nearCount(r, sq, d), nearGrams(r, gq, bound)
		for j, x := range sets[i] {
			grams[gramAt(i)+j*blockSlots] = x
		}
	}
	return words, grams, sets
}

// checkCount holds maskedWords on count words — cntGroupAVX512 with the
// AVX-512 bodies on, cntGroup without — and cntGroup itself to the
// definition, slot by slot: the kept blocks' slots inside [from,
// len(words)) that neither surplus puts past slack, and of those, the ones
// whose set is within 4·slack grams of gq's on both sides (the bound capped
// at gramSetBits). Both store exactly the survivors, in order, in a room of
// as many slots as the mask lets be read, and nothing in the guard region
// after it; passed is held exactly.
func checkCount(t *testing.T, words, grams []uint64, sets []gramSet, mask uint64, from int, sq uint64, gq gramSet, slack int) {
	t.Helper()
	bound := 4 * min(slack, gramSetBits/4)
	var want []int32
	wantPassed := 0
	for i := from; i < len(words); i++ {
		if mask>>(i/blockSlots)&1 == 1 && !countReject(sq, words[i], slack) {
			wantPassed++
			if keep(gramsLacking(&gq, &sets[i]), gramsLacking(&sets[i], &gq), bound) == 1 {
				want = append(want, int32(i))
			}
		}
	}
	const guard = 16
	read := groupRead(len(words), mask, from)
	w := &Words{sigs: words, grams: grams, counts: true}
	for _, path := range []string{"maskedWords", "cntGroup"} {
		var surv [ctxStride + guard]int32
		for i := range surv {
			surv[i] = -1
		}
		room := surv[ctxStride-read : ctxStride]
		var n, passed int
		if path == "maskedWords" {
			n, passed, _ = w.maskedWords(0, int32(from), int32(len(words)), mask, sq, slack, &gq, room)
		} else {
			n, passed = cntGroup(words, grams, mask, from, room, sq, &gq, slack, bound)
		}
		if passed != wantPassed || !slices.Equal(room[:n], want) || slices.ContainsFunc(surv[ctxStride:], func(v int32) bool { return v != -1 }) {
			t.Fatalf("%s: sq %#x slack %d, %d words from %d, mask %#x: kept %d of %d passed, want %d of %d, or stored past its room",
				path, sq, slack, len(words), from, mask, n, passed, len(want), wantPassed)
		}
	}
}

// checkBlockMask holds blockMask over blocks g to g+len(hi) of summaries
// laid out as Words lays them out, two planes of nb >= g+len(hi) blocks with
// hi and lo in them at block g, to the Go loop of the kind over hi and lo
// themselves: on count words cntMaskAVX512 or cntMask, on occurrence words
// occMaskPOPCNT (scalar or AVX-512) or occMask. The blocks around them are
// noise.
func checkBlockMask(t *testing.T, r *rand.Rand, counts bool, g, nb int, hi, lo []uint64, sq uint64, slack int) {
	t.Helper()
	w := &Words{sums: make([]uint64, 2*nb), counts: counts}
	for i := range w.sums {
		w.sums[i] = r.Uint64()
	}
	copy(w.sums[g:], hi)
	copy(w.sums[nb+g:], lo)
	want := occMask(hi, lo, sq, slack)
	if counts {
		want = cntMask(hi, lo, sq, slack)
	}
	if got := w.blockMask(int32(g), len(hi), sq, slack); got != want {
		t.Fatalf("counts %v, sq %#x slack %d, blocks %d to %d of %d: mask %#x, Go loop %#x", counts, sq, slack, g, g+len(hi), nb, got, want)
	}
}

// everyOther sets every other entry of each slice, from the first on, to x.
func everyOther(x uint64, dsts ...[]uint64) {
	for _, s := range dsts {
		for i := 0; i < len(s); i += 2 {
			s[i] = x
		}
	}
}

// countSumsOf draws the maxima and minima of nb blocks, count words near sq,
// each minimum under its maximum but one in four not.
func countSumsOf(r *rand.Rand, nb int, sq uint64, d int) (hi, lo []uint64) {
	hi, lo = make([]uint64, nb), make([]uint64, nb)
	for j := range hi {
		a, b := nearCount(r, sq, d), nearCount(r, sq, d)
		hi[j], lo[j] = a, a
		for f := 0; f < dnaFields; f++ {
			hi[j] = setField(hi[j], f, max(countField(a, f), countField(b, f)))
			lo[j] = setField(lo[j], f, min(countField(a, f), countField(b, f)))
		}
		if r.Intn(4) == 0 {
			hi[j], lo[j] = lo[j], hi[j]
		}
	}
	return hi, lo
}

// TestCountKernelsAgree: the count-word kernels, with the AVX-512 bodies on
// and off, return exactly what their Go loops return — blockMask's count
// case over 1 to 64 blocks, so that the last group of eight is cut at every
// lane and bit 63 is set and read, from block 0 and from a block past it,
// and maskedWords' over groups of 1 to ctxStride words, so that every length
// mod 16 clamps the last block, under the masks of groupMasks and with the
// window starting at every lane of the first block — at slacks from 0 to
// unbounded (from 64 on the 4-gram bound rejects nothing), against a query
// word that is empty, saturated or a read's, with words that are saturated
// or one-sided and sets exactly at the bound and one past it; and on groups
// whose survivors are placed, one and two at every lane of the first, a
// middle and the last block, rejected around them by the count word or by
// the 4-gram set.
func TestCountKernelsAgree(t *testing.T) {
	eachHead(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(52))
		read := dataset.DNAReads(1, 52)[0]
		gqs := []gramSet{gramSetOf(read), {}, {1<<64 - 1, 1<<64 - 1, 1<<64 - 1, 1<<64 - 1}}
		for si, sq := range []uint64{0, fieldMax * fieldOnes, countWord(read)} {
			gq := gqs[si]
			for _, slack := range []int{0, 1, 2, 4, 8, 12, 63, 64, 100, 5*fieldMax - 1, 5 * fieldMax, math.MaxInt} {
				for nb := 1; nb <= groupBlocks; nb++ {
					hi, lo := countSumsOf(r, nb, sq, min(slack, fieldMax)+1)
					for _, g := range []int{0, 1 + r.Intn(2*groupBlocks)} {
						checkBlockMask(t, r, true, g, g+nb+r.Intn(3), hi, lo, sq, slack)
					}
				}
				words, grams, sets := countGroupOf(r, ctxStride, sq, gq, slack)
				for size := 1; size <= ctxStride; size += 1 + size/64 {
					nb := (size + blockSlots - 1) / blockSlots
					masks := groupMasks(r, nb)
					if size > 3*blockSlots { // one mask and one clamp each past three blocks
						checkCount(t, words[:size], grams[:4*blockSlots*nb], sets, masks[size%len(masks)], size/blockSlots%blockSlots, sq, gq, slack)
						continue
					}
					for from := 0; from < min(blockSlots, size); from++ {
						for _, mask := range masks {
							checkCount(t, words[:size], grams[:4*blockSlots*nb], sets, mask, from, sq, gq, slack)
						}
					}
				}
			}
		}

		// Every field at fieldMax on one side and 0 on the other, in every
		// other word and every other summary: a surplus of 5·fieldMax, past
		// what one byte holds, at a slack under it, a slack its low byte
		// would pass, and at it.
		for _, sq := range []uint64{0, fieldMax * fieldOnes} {
			far := sq ^ fieldMax*fieldOnes
			for _, slack := range []int{5*fieldMax - 1, 5 * fieldMax & 0xff, 5 * fieldMax} {
				words, grams, sets := countGroupOf(r, 3*blockSlots, sq, gqs[0], slack)
				hi, lo := countSumsOf(r, groupBlocks, sq, slack+1)
				everyOther(far, words, hi, lo)
				checkCount(t, words, grams, sets, 7, 0, sq, gqs[0], slack)
				checkBlockMask(t, r, true, 0, groupBlocks, hi, lo, sq, slack)
			}
		}

		// Survivors placed, as for the occurrence words; the other slots
		// fail the count word (one field two past slack) or, passing it, the
		// 4-gram set (one gram past the bound).
		const size = 2*blockSlots + 5
		sq, gq := countWord(read), gramSetOf(read)
		for _, slack := range []int{0, 2} {
			bound := 4 * slack
			reject := []struct {
				word uint64
				set  gramSet
			}{
				{setField(sq, 1, countField(sq, 1)+slack+2), gq},
				{sq, flipGrams(r, gq, true, bound+1)},
			}
			for _, from := range []int{0, 3} {
				for _, mask := range []uint64{7, 5} {
					for _, rej := range reject {
						for a := -1; a < size; a++ {
							for b := a; b < size; b++ {
								words := make([]uint64, size)
								sets := make([]gramSet, size)
								grams := make([]uint64, 4*blockSlots*3)
								for i := range words {
									words[i], sets[i] = rej.word, rej.set
									if i == a || i == b {
										words[i], sets[i] = setField(sq, 2, countField(sq, 2)+slack), flipGrams(r, gq, false, bound)
									}
									for j, x := range sets[i] {
										grams[gramAt(i)+j*blockSlots] = x
									}
								}
								checkCount(t, words, grams, sets, mask, from, sq, gq, slack)
							}
						}
					}
				}
			}
		}
	})
}

// FuzzCountKernels: for any seed, slack, group length, mask, window start
// and summary count, both count-word kernels, with the AVX-512 bodies on
// and off, equal the Go loops and the definition. Groups are 1 to ctxStride
// words and masks keep only their blocks; summaries are 1 to 64 blocks, read
// through blockMask from block from on; the slack is 0 to 255 (from 64 on
// the 4-gram set passes everything). A negative seed puts the query word at
// an extreme, every field 0 (odd) or at fieldMax (even), and every other
// word and summary at the other: surpluses of 5·fieldMax, which a sum cut
// to one byte lets through from slack 5·fieldMax mod 256 on.
func FuzzCountKernels(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(1024), ^uint64(0), uint8(0), uint8(64))
	f.Add(int64(2), uint8(0), uint16(15), uint64(1), uint8(9), uint8(9))
	f.Add(int64(3), uint8(64), uint16(1023), uint64(0x8000000000000001), uint8(15), uint8(1))
	f.Add(int64(-1), uint8(5*fieldMax&0xff), uint16(100), ^uint64(0), uint8(0), uint8(8))
	f.Add(int64(-2), uint8(200), uint16(1024), ^uint64(0), uint8(3), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, slack uint8, size uint16, mask uint64, from, blocks uint8) {
		r := rand.New(rand.NewSource(seed))
		read := dataset.DNAReads(1, seed)[0]
		sq, gq := countWord(read), gramSetOf(read)
		switch {
		case seed < 0:
			sq = fieldMax * fieldOnes * uint64(1-seed&1)
		case seed%3 == 0:
			sq, gq = nearCount(r, sq, 4), nearGrams(r, gq, 16)
		}
		n, nb := 1+int(size)%ctxStride, 1+int(blocks)%groupBlocks
		words, grams, sets := countGroupOf(r, n, sq, gq, int(slack))
		mask &= ^uint64(0) >> (64 - (n+blockSlots-1)/blockSlots)
		hi, lo := countSumsOf(r, nb, sq, int(slack)+1)
		if seed < 0 {
			everyOther(sq^fieldMax*fieldOnes, words, hi, lo)
		}
		defer func(v bool) { vpopcntKernels = v }(vpopcntKernels)
		for _, head := range []bool{false, vpopcnt} {
			vpopcntKernels = head
			checkBlockMask(t, r, true, int(from), int(from)+nb+int(blocks)%3, hi, lo, sq, int(slack))
			checkCount(t, words, grams, sets, mask, int(from)%min(blockSlots, n), sq, gq, int(slack))
		}
	})
}

// TestCPUFeatures holds the flags read from CPUID and XGETBV to the flags
// the kernel reports in /proc/cpuinfo, which it clears where the OS does
// not save a feature's state: a wrong bit would either leave the AVX-512
// heads off where they could run or execute them, and fault, where they
// cannot.
func TestCPUFeatures(t *testing.T) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo:", err)
	}
	defer f.Close()
	var flags []string
	for s := bufio.NewScanner(f); s.Scan(); {
		if name, list, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	has := func(flag string) bool { return slices.Contains(flags, flag) }
	x := cpu.X86
	if x.POPCNT != has("popcnt") {
		t.Errorf("CPUID says POPCNT %v, /proc/cpuinfo %v", x.POPCNT, has("popcnt"))
	}
	if x.AVX512F != has("avx512f") {
		t.Errorf("CPUID and XGETBV say AVX512F may run: %v; /proc/cpuinfo: %v", x.AVX512F, has("avx512f"))
	}
	if want := has("avx512f") && has("avx512_vpopcntdq"); x.VPOPCNTDQ != want {
		t.Errorf("CPUID and XGETBV say AVX512_VPOPCNTDQ may run: %v; /proc/cpuinfo: %v", x.VPOPCNTDQ, want)
	}
	if want := has("avx512f") && has("avx512bw"); x.AVX512BW != want {
		t.Errorf("CPUID and XGETBV say AVX512BW may run: %v; /proc/cpuinfo: %v", x.AVX512BW, want)
	}
	if want := has("avx512f") && has("avx512bw") && has("avx512vbmi") && has("avx512_vbmi2"); x.AVX512VBMI != want {
		t.Errorf("CPUID and XGETBV say AVX512BW, AVX512_VBMI and AVX512_VBMI2 may run: %v; /proc/cpuinfo: %v", x.AVX512VBMI, want)
	}
	// The count-word kernels' surplus is VPSUBUSB and VPSADBW, AVX512BW
	// instructions: the one flag that lets them run must ask for it too.
	heads := has("popcnt") && has("avx512f") && has("avx512_vpopcntdq") && has("avx512bw")
	if popcntKernels != x.POPCNT || vpopcntKernels != (x.POPCNT && x.VPOPCNTDQ && x.AVX512BW) || vpopcntKernels != heads {
		t.Errorf("the kernel flags (%v, %v) are not what the probe read (%+v) or /proc/cpuinfo lists (AVX-512 heads: %v)",
			popcntKernels, vpopcntKernels, x, heads)
	}
}

var occSink int

// BenchmarkOccurrenceKernels reports, for maskedWords' occurrence case — the
// Go loop, the scalar POPCNT body and the AVX-512 body — ns per kept block
// and ns per word read over one group of 1,024 random words against a
// random query at slack 3, where hardly a word passes, as on names: with a
// quarter of its blocks kept, 57% (what the summaries keep of a city name's
// window at k = 3), all of them, and all of a window clamped at both ends
// (from lane 5 to 1,000 words); and ns per block for blockMask's occurrence
// case over one 64-block mask. For the count words — the Go loop and the
// AVX-512 body — it reports ns per kept block over one group of 1,024 count
// words, every block kept, of which 28% pass at slack 4 and 54% at slack 8
// (the share of the words read that pass on reads at k = 4 and k = 8), at
// random, each with a read's 4-gram set behind it; and ns per block over one
// 64-block mask.
func BenchmarkOccurrenceKernels(b *testing.B) {
	if !popcntKernels {
		b.Skip("no POPCNT kernels on this CPU")
	}
	r := rand.New(rand.NewSource(50))
	sq := r.Uint64()
	words := make([]uint64, ctxStride)
	for i := range words {
		words[i] = r.Uint64()
	}
	var surv [ctxStride]int32
	defer func(v bool) { vpopcntKernels = v }(vpopcntKernels)
	kernels := []struct {
		name  string
		head  bool
		group func([]uint64, uint64, int) int
		mask  func(hi, lo []uint64) uint64
	}{
		{"go", false,
			func(w []uint64, m uint64, from int) int { return occGroup(w, m, from, surv[:], sq, 3) },
			func(hi, lo []uint64) uint64 { return occMask(hi, lo, sq, 3) }},
		{"scalar", false,
			func(w []uint64, m uint64, from int) int { return occGroupPOPCNT(w, m, from, surv[:], sq, 3) },
			func(hi, lo []uint64) uint64 { return occMaskPOPCNT(hi, lo, sq, 3) }},
		{"avx512", true,
			func(w []uint64, m uint64, from int) int { return occGroupPOPCNT(w, m, from, surv[:], sq, 3) },
			func(hi, lo []uint64) uint64 { return occMaskPOPCNT(hi, lo, sq, 3) }},
	}
	kept := func(n int) (m uint64) {
		for _, j := range r.Perm(groupBlocks)[:n] {
			m |= 1 << j
		}
		return m
	}
	groups := []struct {
		name       string
		size, from int
		mask       uint64
	}{
		{"group/quarter", ctxStride, 0, kept(groupBlocks / 4)},
		{"group/city-k3", ctxStride, 0, kept(37)},
		{"group/all", ctxStride, 0, ^uint64(0)},
		{"group/clamped", 1000, 5, ^uint64(0) >> 1},
	}
	for _, g := range groups {
		read := groupRead(g.size, g.mask, g.from)
		for _, k := range kernels {
			b.Run(g.name+"/"+k.name, func(b *testing.B) {
				if k.head && !vpopcnt {
					b.Skip("no AVX-512 bodies on this CPU")
				}
				vpopcntKernels = k.head
				for i := 0; i < b.N; i++ {
					occSink += k.group(words[:g.size], g.mask, g.from)
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns/float64(bits.OnesCount64(g.mask)), "ns/block")
				b.ReportMetric(ns/float64(read), "ns/word")
			})
		}
	}
	for _, k := range kernels {
		b.Run("mask64/"+k.name, func(b *testing.B) {
			if k.head && !vpopcnt {
				b.Skip("no AVX-512 heads on this CPU")
			}
			vpopcntKernels = k.head
			for i := 0; i < b.N; i++ {
				occSink += int(k.mask(words[:groupBlocks], words[groupBlocks:2*groupBlocks]))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groupBlocks), "ns/block")
		})
	}

	reads := dataset.DNAReads(ctxStride+1, 52)
	cq, gq := countWord(reads[0]), gramSetOf(reads[0])
	counts := []struct {
		name  string
		group func([]uint64, []uint64, int) (int, int)
		mask  func(hi, lo []uint64) uint64
	}{
		{"go",
			func(w, g []uint64, slack int) (int, int) {
				return cntGroup(w, g, ^uint64(0), 0, surv[:], cq, &gq, slack, 4*slack)
			},
			func(hi, lo []uint64) uint64 { return cntMask(hi, lo, cq, 4) }},
		{"avx512",
			func(w, g []uint64, slack int) (int, int) {
				return cntGroupAVX512(w, g, ^uint64(0), 0, surv[:], cq, &gq, slack, 4*slack)
			},
			func(hi, lo []uint64) uint64 { return cntMaskAVX512(hi, lo, cq, 4) }},
	}
	for _, c := range []struct {
		name  string
		slack int
		share float64
	}{{"count/reads-k4", 4, 0.28}, {"count/reads-k8", 8, 0.54}} {
		cw, grams := make([]uint64, ctxStride), make([]uint64, 4*ctxStride)
		for i := range cw {
			move := c.slack + 1 + r.Intn(4) // x over cq: past slack
			if r.Float64() < c.share {
				move = r.Intn(c.slack + 1)
			}
			f := r.Intn(dnaFields)
			cw[i] = setField(cq, f, countField(cq, f)+move)
			for j, x := range gramSetOf(reads[1+i]) {
				grams[gramAt(i)+j*blockSlots] = x
			}
		}
		for _, k := range counts {
			b.Run(c.name+"/"+k.name, func(b *testing.B) {
				if k.name == "avx512" && !vpopcnt {
					b.Skip("no AVX-512 bodies on this CPU")
				}
				passed := 0
				for i := 0; i < b.N; i++ {
					var n int
					n, passed = k.group(cw, grams, c.slack)
					occSink += n
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groupBlocks), "ns/block")
				b.ReportMetric(float64(passed)/ctxStride, "passed/word")
			})
		}
	}
	hi, lo := countSumsOf(r, groupBlocks, cq, 5)
	for _, k := range counts {
		b.Run("count/mask64/"+k.name, func(b *testing.B) {
			if k.name == "avx512" && !vpopcnt {
				b.Skip("no AVX-512 heads on this CPU")
			}
			for i := 0; i < b.N; i++ {
				occSink += int(k.mask(hi, lo))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groupBlocks), "ns/block")
		})
	}
}
