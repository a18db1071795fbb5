// Package cpu reads, once, the x86 features that the tree's assembly
// kernels need: the occurrence-word and count-word kernels of
// internal/scan and the band-lane kernel of internal/edit. It is the one
// CPUID/XGETBV probe in the tree; each kernel package derives its own flag
// from X86, which its tests flip to force a path.
package cpu

// features is what the CPU and the OS let the kernels run.
type features struct {
	POPCNT bool // CPUID leaf 1 ECX bit 23
	// AVX512F is AVX512F (leaf 7 EBX bit 16) from the CPU and, from the OS,
	// the saving of the SSE, AVX and AVX-512 state (XCR0 bits 1, 2 and 5–7).
	AVX512F bool
	// VPOPCNTDQ is AVX512_VPOPCNTDQ (leaf 7 ECX bit 14), and AVX512F with it.
	VPOPCNTDQ bool
	// AVX512VBMI is AVX512BW (leaf 7 EBX bit 30), AVX512_VBMI (leaf 7 ECX
	// bit 1) and AVX512_VBMI2 (leaf 7 ECX bit 6), and AVX512F with them:
	// byte masks, byte permutes and funnel shifts.
	AVX512VBMI bool
}

// X86 is what the probe read at init; all false off amd64.
var X86 = probe()
