package scan

// popcntKernels is whether the CPU has POPCNT (CPUID leaf 1, ECX bit 23),
// read once. Built for GOAMD64=v1, as the default is, every
// bits.OnesCount64 loads a feature flag and branches around a call to a
// portable fallback, and the call's registers spill around it; the two
// occurrence-word loops are nothing but popcounts, so they run in assembly
// with a bare POPCNT instead (DESIGN §13). A CPU without it runs the Go
// loops.
var popcntKernels = cpuid1ECX()&(1<<23) != 0

// cpuid1ECX returns ECX of CPUID leaf 1, the processor's feature bits.
func cpuid1ECX() uint32

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
