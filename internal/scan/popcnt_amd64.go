package scan

// popcntKernels is whether the CPU has POPCNT, read once. Built for
// GOAMD64=v1, as the default is, every bits.OnesCount64 loads a feature
// flag and branches around a call to a portable fallback, and the call's
// registers spill around it; the two occurrence-word loops are nothing but
// popcounts, so they run in assembly with a bare POPCNT instead (DESIGN
// §13). A CPU without it runs the Go loops.
//
// vpopcntKernels is whether those kernels run on AVX-512, eight words per
// VPOPCNTQ, instead of their scalar loops. The assembly reads it, so that
// neither Go loop nor kernel signature knows of it. The count-word kernels
// have no scalar body: without AVX-512 the Go loops run.
var popcntKernels, vpopcntKernels = cpuFeatures()

// cpuFeatures reads the two flags from CPUID: POPCNT is leaf 1 ECX bit 23;
// the AVX-512 paths need AVX512F (leaf 7 EBX bit 16) and AVX512_VPOPCNTDQ
// (leaf 7 ECX bit 14) from the CPU, and from the OS the saving of the SSE,
// AVX and AVX-512 state (XCR0 bits 1, 2 and 5–7), which XGETBV reads only
// once leaf 1 ECX bit 27 (OSXSAVE) says the instruction exists.
func cpuFeatures() (popcnt, vpopcntq bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	popcnt = ecx1&(1<<23) != 0
	if !popcnt || maxLeaf < 7 || ecx1&(1<<27) == 0 {
		return popcnt, false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const xcr0AVX512 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // 0xe6
	return true, ebx7&(1<<16) != 0 && ecx7&(1<<14) != 0 && xgetbv0()&xcr0AVX512 == xcr0AVX512
}

// cpuid returns the four registers of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the state components the OS saves.
// Only call it where CPUID leaf 1 reports OSXSAVE.
func xgetbv0() uint32

// occMaskPOPCNT is occMask with a bare POPCNT, or on AVX-512 eight blocks
// a step; cntMaskAVX512 is cntMask on AVX-512, eight blocks a step. Both
// test len(hi) <= 64 blocks, the last group of eight under a lane mask, and
// check no bounds: blockMask does.
//
//go:noescape
func occMaskPOPCNT(hi, lo []uint64, sq uint64, slack int) uint64

//go:noescape
func cntMaskAVX512(hi, lo []uint64, sq uint64, slack int) uint64

// occGroupPOPCNT is occGroup with a bare POPCNT, or on AVX-512 a block a
// step; cntGroupAVX512 is cntGroup on AVX-512, a block a step. Neither
// checks bounds: maskedWords does.
//
//go:noescape
func occGroupPOPCNT(words []uint64, mask uint64, from int, surv []int32, sq uint64, slack int) int

//go:noescape
func cntGroupAVX512(words, grams []uint64, mask uint64, from int, surv []int32, sq uint64, gq *gramSet, slack, bound int) (n, passed int)
