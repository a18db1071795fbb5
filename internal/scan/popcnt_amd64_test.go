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
)

// eachHead runs f once on the scalar kernels and once with their AVX-512
// heads, which it skips where the CPU or the OS lacks them; it restores
// vpopcntKernels after each.
func eachHead(t *testing.T, f func(t *testing.T)) {
	if !popcntKernels {
		t.Skip("no POPCNT kernels on this CPU: the Go loops are the only path")
	}
	_, vpopcnt := cpuFeatures()
	for _, head := range []bool{false, true} {
		t.Run(map[bool]string{false: "scalar", true: "avx512"}[head], func(t *testing.T) {
			if head && !vpopcnt {
				t.Skip("no AVX512F and AVX512_VPOPCNTDQ on this CPU, or the OS does not save their state")
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

// sumsOf fills sums with nb OR/AND pairs of words near sq, each AND inside
// its OR but one in four not, which the kernels must not rely on either.
func sumsOf(r *rand.Rand, sums []uint64, sq uint64, sparse bool) {
	for j := 0; j < len(sums)/2; j++ {
		hi := nearWord(r, sq, sparse)
		sums[2*j], sums[2*j+1] = hi, hi&nearWord(r, sq, sparse)
		if r.Intn(4) == 0 {
			sums[2*j+1] = nearWord(r, sq, sparse)
		}
	}
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
// — blockMask's occurrence case (occMask) over 1 to 64 blocks, so that every
// remainder mod 8 follows the head's groups and bit 63 is set and read, and
// maskedWords' (occGroup) over groups of 1 to ctxStride words, so that every
// length mod 16 clamps the last block, under the masks of groupMasks and
// with the window starting at every lane of the first block, on dense and
// on sparse words — at slacks from 0 (equality) to unbounded; and on groups
// whose survivors are placed, one and two at every lane of the first, a
// middle and the last block, so that a body which loses a lane, reads one
// past a clamp or walks them out of order fails on every seed.
func TestOccurrenceKernelsAgree(t *testing.T) {
	eachHead(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(51))
		slacks := []int{0, 1, 2, 3, 8, 63, 64, math.MaxInt}
		var words [ctxStride]uint64
		for _, sq := range []uint64{0, math.MaxUint64, 1 << 63, r.Uint64()} {
			for _, slack := range slacks {
				for _, sparse := range []bool{false, true} {
					for nb := 1; nb <= groupBlocks; nb++ {
						sums := make([]uint64, 2*nb)
						sumsOf(r, sums, sq, sparse)
						if got, want := occMaskPOPCNT(sums, sq, slack), occMask(sums, sq, slack); got != want {
							t.Fatalf("sq %#x slack %d, %d blocks: kernel mask %#x, Go loop %#x", sq, slack, nb, got, want)
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
// masks keep only their blocks; summaries are 1 to 64 blocks; the slack is
// 0 to 255 (from 64 on everything passes).
func FuzzOccurrenceKernels(f *testing.F) {
	f.Add(uint64(0x00ff00ff00ff00ff), uint8(3), int64(1), uint16(1024), ^uint64(0), uint8(0), uint8(64), false)
	f.Add(uint64(0), uint8(1), int64(2), uint16(15), uint64(1), uint8(9), uint8(9), true)
	f.Add(uint64(math.MaxUint64), uint8(0), int64(3), uint16(1023), uint64(0x8000000000000001), uint8(15), uint8(1), false)
	_, vpopcnt := cpuFeatures()
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
		sums := make([]uint64, 2*nb)
		sumsOf(r, sums, sq, sparse)
		defer func(v bool) { vpopcntKernels = v }(vpopcntKernels)
		for _, head := range []bool{false, vpopcnt} {
			vpopcntKernels = head
			if got, want := occMaskPOPCNT(sums, sq, int(slack)), occMask(sums, sq, int(slack)); got != want {
				t.Fatalf("head %v, sq %#x slack %d, %d blocks: kernel mask %#x, Go loop %#x", head, sq, slack, nb, got, want)
			}
			checkGroup(t, group, mask, int(from)%min(blockSlots, n), sq, int(slack))
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
	popcnt, vpopcnt := cpuFeatures()
	if popcnt != has("popcnt") {
		t.Errorf("CPUID says POPCNT %v, /proc/cpuinfo %v", popcnt, has("popcnt"))
	}
	if want := has("popcnt") && has("avx512f") && has("avx512_vpopcntdq"); vpopcnt != want {
		t.Errorf("CPUID and XGETBV say the AVX-512 heads may run: %v; /proc/cpuinfo: %v", vpopcnt, want)
	}
	if popcnt != popcntKernels || vpopcnt != vpopcntKernels {
		t.Errorf("the flags read at init (%v, %v) are not what CPUID says now (%v, %v)", popcntKernels, vpopcntKernels, popcnt, vpopcnt)
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
// case over one 64-block mask.
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
	_, vpopcnt := cpuFeatures()
	defer func(v bool) { vpopcntKernels = v }(vpopcntKernels)
	kernels := []struct {
		name  string
		head  bool
		group func([]uint64, uint64, int) int
		mask  func([]uint64) uint64
	}{
		{"go", false,
			func(w []uint64, m uint64, from int) int { return occGroup(w, m, from, surv[:], sq, 3) },
			func(sums []uint64) uint64 { return occMask(sums, sq, 3) }},
		{"scalar", false,
			func(w []uint64, m uint64, from int) int { return occGroupPOPCNT(w, m, from, surv[:], sq, 3) },
			func(sums []uint64) uint64 { return occMaskPOPCNT(sums, sq, 3) }},
		{"avx512", true,
			func(w []uint64, m uint64, from int) int { return occGroupPOPCNT(w, m, from, surv[:], sq, 3) },
			func(sums []uint64) uint64 { return occMaskPOPCNT(sums, sq, 3) }},
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
				occSink += int(k.mask(words[:2*groupBlocks]))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groupBlocks), "ns/block")
		})
	}
}
