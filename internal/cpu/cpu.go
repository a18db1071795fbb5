// Package cpu reads, once, the x86 features that the tree's assembly
// kernels need. It is the one CPUID/XGETBV probe in the tree; each kernel
// package derives its own flag from X86, which its tests flip to force a
// path:
//   - internal/scan's occurrence-word kernels need POPCNT, and their AVX-512
//     bodies VPOPCNTDQ and AVX512BW as well;
//   - internal/scan's count-word kernels need POPCNT, VPOPCNTDQ and
//     AVX512BW (their byte subtract and byte sum);
//   - internal/edit's band-lane kernel needs AVX512VBMI.
package cpu

// features is what the CPU and the OS let the kernels run.
type features struct {
	POPCNT bool // CPUID leaf 1 ECX bit 23
	// AVX512F is AVX512F (leaf 7 EBX bit 16) from the CPU and, from the OS,
	// the saving of the SSE, AVX and AVX-512 state (XCR0 bits 1, 2 and 5–7).
	AVX512F bool
	// VPOPCNTDQ is AVX512_VPOPCNTDQ (leaf 7 ECX bit 14), and AVX512F with
	// it: popcounts of eight qwords. The scan kernels' AVX-512 bodies.
	VPOPCNTDQ bool
	// AVX512BW is AVX512BW (leaf 7 EBX bit 30), and AVX512F with it: byte and
	// word instructions on 512-bit vectors. The count-word kernels' surplus
	// (VPSUBUSB, VPSADBW) and every AVX512VBMI instruction need it.
	AVX512BW bool
	// AVX512VBMI is AVX512BW, AVX512_VBMI (leaf 7 ECX bit 1) and
	// AVX512_VBMI2 (leaf 7 ECX bit 6): byte masks, byte permutes and funnel
	// shifts. The band-lane kernel.
	AVX512VBMI bool
}

// X86 is what the probe read at init; all false off amd64.
var X86 = probe()
