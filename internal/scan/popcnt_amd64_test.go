package scan

import (
	"bufio"
	"fmt"
	"math"
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

// checkSurvivors holds occSurvivorsPOPCNT to occSurvivors on run, whose
// slice of surv ends exactly at the end of the guarded buffer's ctxStride
// slots: the kernel stores nothing outside its slice, and where it stores,
// what the Go loop stores.
func checkSurvivors(t *testing.T, run []uint64, off int32, sq uint64, slack int) {
	t.Helper()
	const guard = 16
	var goSurv, asmSurv [ctxStride + guard]int32
	for i := range goSurv {
		goSurv[i], asmSurv[i] = -1, -1
	}
	n, size := ctxStride-len(run), len(run)
	want := occSurvivors(run, goSurv[n:n+size], off, sq, slack)
	got := occSurvivorsPOPCNT(run, asmSurv[n:n+size], off, sq, slack)
	if got != want || asmSurv != goSurv {
		t.Fatalf("sq %#x slack %d, %d words: the kernel kept %d, the Go loop %d, or stored elsewhere",
			sq, slack, size, got, want)
	}
}

// TestOccurrenceKernelsAgree: the POPCNT kernels, scalar and with their
// AVX-512 heads, return exactly what the Go loops they stand in for return
// — blockMask's occurrence case (occMask) over 1 to 64 blocks, so that every
// remainder mod 8 follows the heads' groups and bit 63 is set and read, and
// firstWord's (occSurvivors) over runs of 0 to ctxStride words, so that
// every remainder mod 8 does too, on dense and on sparse words — at slacks
// from 1 to unbounded (at slack 0 firstWord compares words for equality and
// never calls either); and on runs whose survivors are placed, one and two
// at every offset of two groups and a tail, so that a head which loses a
// lane or walks them out of order fails on every seed.
func TestOccurrenceKernelsAgree(t *testing.T) {
	eachHead(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(49))
		slacks := []int{1, 2, 3, 8, 63, 64, math.MaxInt}
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
					}
					for size := 0; size <= ctxStride; size++ {
						run := words[r.Intn(ctxStride-size+1):][:size]
						checkSurvivors(t, run, int32(r.Intn(ctxStride)), sq, slack)
					}
				}
			}
		}

		// Survivors placed: none, each one and each pair at every offset of
		// two groups and a tail of three, then every word.
		const size, sq, slack = 19, 0x00ff00ff00ff00ff, 2
		run := make([]uint64, size)
		for a := -1; a < size; a++ {
			for b := a; b < size; b++ {
				for i := range run {
					run[i] = ^uint64(sq) // 64 bits off on the two sides together
					if i == a || i == b {
						run[i] = sq ^ 3 // two bits off
					}
				}
				checkSurvivors(t, run, 7, sq, slack)
			}
		}
		for i := range run {
			run[i] = sq
		}
		checkSurvivors(t, run, 0, sq, slack)
	})
}

// FuzzOccurrenceKernels: for any query word, slack, seed and run and mask
// lengths, both kernels, scalar and with their AVX-512 heads, equal the Go
// loops. Runs are 0 to ctxStride words and masks 1 to 64 blocks; the slack
// is 0 to 255 (the sweep passes k >= 1, and from 64 on everything passes).
func FuzzOccurrenceKernels(f *testing.F) {
	f.Add(uint64(0x00ff00ff00ff00ff), uint8(3), int64(1), uint16(1024), uint8(64), false)
	f.Add(uint64(0), uint8(1), int64(2), uint16(15), uint8(9), true)
	f.Add(uint64(math.MaxUint64), uint8(64), int64(3), uint16(7), uint8(1), false)
	_, vpopcnt := cpuFeatures()
	f.Fuzz(func(t *testing.T, sq uint64, slack uint8, seed int64, runLen uint16, blocks uint8, sparse bool) {
		if !popcntKernels {
			t.Skip("no POPCNT kernels on this CPU")
		}
		r := rand.New(rand.NewSource(seed))
		size, nb := int(runLen)%(ctxStride+1), 1+int(blocks)%groupBlocks
		run := make([]uint64, size)
		for i := range run {
			run[i] = nearWord(r, sq, sparse)
		}
		sums := make([]uint64, 2*nb)
		sumsOf(r, sums, sq, sparse)
		defer func(v bool) { vpopcntKernels = v }(vpopcntKernels)
		for _, head := range []bool{false, vpopcnt} {
			vpopcntKernels = head
			if got, want := occMaskPOPCNT(sums, sq, int(slack)), occMask(sums, sq, int(slack)); got != want {
				t.Fatalf("head %v, sq %#x slack %d, %d blocks: kernel mask %#x, Go loop %#x", head, sq, slack, nb, got, want)
			}
			checkSurvivors(t, run, int32(r.Intn(ctxStride)), sq, int(slack))
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

// BenchmarkOccurrenceKernels reports ns/word for firstWord's occurrence loop
// — the Go loop, the scalar POPCNT kernel and the kernel with its AVX-512
// head — over runs of 16, 64 and 1,024 random words against a random query
// at slack 3, where hardly a word passes, as on names; and ns/block for
// blockMask's occurrence case over one 64-block mask.
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
		name string
		head bool
		surv func([]uint64) int
		mask func([]uint64) uint64
	}{
		{"go", false,
			func(run []uint64) int { return occSurvivors(run, surv[:len(run)], 0, sq, 3) },
			func(sums []uint64) uint64 { return occMask(sums, sq, 3) }},
		{"scalar", false,
			func(run []uint64) int { return occSurvivorsPOPCNT(run, surv[:len(run)], 0, sq, 3) },
			func(sums []uint64) uint64 { return occMaskPOPCNT(sums, sq, 3) }},
		{"avx512", true,
			func(run []uint64) int { return occSurvivorsPOPCNT(run, surv[:len(run)], 0, sq, 3) },
			func(sums []uint64) uint64 { return occMaskPOPCNT(sums, sq, 3) }},
	}
	for _, size := range []int{16, 64, ctxStride} {
		for _, k := range kernels {
			b.Run(fmt.Sprintf("run%d/%s", size, k.name), func(b *testing.B) {
				if k.head && !vpopcnt {
					b.Skip("no AVX-512 heads on this CPU")
				}
				vpopcntKernels = k.head
				for i := 0; i < b.N; i++ {
					occSink += k.surv(words[:size])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/word")
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
