package scan

import "simsearch/internal/cpu"

// popcntKernels is whether the CPU has POPCNT, as internal/cpu read it. Built for
// GOAMD64=v1, as the default is, every bits.OnesCount64 loads a feature
// flag and branches around a call to a portable fallback, and the call's
// registers spill around it; the two occurrence-word loops are nothing but
// popcounts, so they run in assembly with a bare POPCNT instead (DESIGN
// §13). A CPU without it runs the Go loops.
//
// vpopcntKernels is whether those kernels run on AVX-512, eight words per
// VPOPCNTQ, instead of their scalar loops. The assembly reads it, so that
// neither Go loop nor kernel signature knows of it. The count-word kernels
// have no scalar body: without AVX-512 the Go loops run. Their surplus is a
// byte subtract and a byte sum, which take AVX512BW; every CPU with
// AVX512_VPOPCNTDQ but Knights Mill has it, so one flag asks for both.
var popcntKernels, vpopcntKernels = cpu.X86.POPCNT, cpu.X86.POPCNT && cpu.X86.VPOPCNTDQ && cpu.X86.AVX512BW

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
