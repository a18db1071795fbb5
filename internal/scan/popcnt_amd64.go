package scan

// popcntKernels is whether the CPU has POPCNT, read once. Built for
// GOAMD64=v1, as the default is, every bits.OnesCount64 loads a feature
// flag and branches around a call to a portable fallback, and the call's
// registers spill around it; the two occurrence-word loops are nothing but
// popcounts, so they run in assembly with a bare POPCNT instead (DESIGN
// §13). A CPU without it runs the Go loops.
//
// vpopcntKernels is whether those kernels run their AVX-512 heads, which
// test eight words per VPOPCNTQ and leave the scalar loop the remainder.
// The assembly reads it, so that neither Go loop nor kernel signature knows
// of it; where it is false the scalar loops take the whole input.
var popcntKernels, vpopcntKernels = cpuFeatures()

// cpuFeatures reads the two flags from CPUID: POPCNT is leaf 1 ECX bit 23;
// the AVX-512 heads need AVX512F (leaf 7 EBX bit 16) and AVX512_VPOPCNTDQ
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

// occMaskPOPCNT is occMask with a bare POPCNT. It reads len(sums)/2 pairs
// and checks no bounds; blockMask passes at most groupBlocks whole pairs.
//
//go:noescape
func occMaskPOPCNT(sums []uint64, sq uint64, slack int) uint64

// occSurvivorsPOPCNT is occSurvivors with a bare POPCNT. It stores at most
// len(run) offsets and checks no bounds: surv must hold len(run).
//
//go:noescape
func occSurvivorsPOPCNT(run []uint64, surv []int32, off int32, sq uint64, slack int) int
