//go:build amd64 && !purego

package cpufeat

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// hasAVX2 reports whether the CPU supports AVX2 and the OS has enabled the
// XMM and YMM register state (OSXSAVE, then XCR0 bits 1 and 2).
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// hasFMA reports CPUID.1:ECX bit 12, the FMA3 extension.
func hasFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<12) != 0
}
