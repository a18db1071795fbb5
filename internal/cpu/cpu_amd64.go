package cpu

// probe reads the features from CPUID. XGETBV is read only once leaf 1 ECX
// bit 27 (OSXSAVE) says the instruction exists.
func probe() features {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	f := features{POPCNT: ecx1&(1<<23) != 0}
	if maxLeaf < 7 || ecx1&(1<<27) == 0 {
		return f
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const xcr0AVX512 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // 0xe6
	f.AVX512F = ebx7&(1<<16) != 0 && xgetbv0()&xcr0AVX512 == xcr0AVX512
	f.VPOPCNTDQ = f.AVX512F && ecx7&(1<<14) != 0
	f.AVX512BW = f.AVX512F && ebx7&(1<<30) != 0
	f.AVX512VBMI = f.AVX512BW && ecx7&(1<<1) != 0 && ecx7&(1<<6) != 0
	return f
}

// cpuid returns the four registers of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the state components the OS saves.
// Only call it where CPUID leaf 1 reports OSXSAVE.
func xgetbv0() uint32
