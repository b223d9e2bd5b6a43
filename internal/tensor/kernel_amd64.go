//go:build amd64

package tensor

// useAVX2 selects the AVX2 kernels of kernel_amd64.s. It is fixed at
// start-up from CPUID/XGETBV: without AVX2 (or an OS that does not save the
// YMM state) every kernel below runs its portable twin instead. Both paths
// give identical bits; the flag only decides speed.
var useAVX2 = cpuHasAVX2()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// cpuHasAVX2 reports whether the CPU supports AVX2 and the OS has enabled
// the XMM and YMM register state (OSXSAVE, then XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
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

//go:noescape
func macPanelAVX2(dst, x, b *float32, n, kc, ld int)

//go:noescape
func macAbsPanelAVX2(z, load, x, w, aw *float32, n, kc, ld int)

//go:noescape
func absMaxAVX2(v *float32, n int) float32

//go:noescape
func quantizeAVX2(dst, src *float32, n int, scale, half, inv float32)

// macPanel computes dst[j] += x[k]·b[k·ld+j] for j < len(dst), k < len(x);
// see macPanelGeneric.
func macPanel(dst, x, b []float32, ld int) {
	n, kc := len(dst), len(x)
	if !useAVX2 {
		macPanelGeneric(dst, x, b, ld)
		return
	}
	if n == 0 || kc == 0 {
		return
	}
	_ = b[(kc-1)*ld+n-1]
	macPanelAVX2(&dst[0], &x[0], &b[0], n, kc, ld)
}

// macAbsPanel is the fused x·W and |x|·|W| panel; see macAbsPanelGeneric.
func macAbsPanel(z, load, x, w, aw []float32, ld int) {
	n, kc := len(z), len(x)
	if !useAVX2 {
		macAbsPanelGeneric(z, load, x, w, aw, ld)
		return
	}
	if n == 0 || kc == 0 {
		return
	}
	end := (kc-1)*ld + n - 1
	_, _, _ = load[n-1], w[end], aw[end]
	macAbsPanelAVX2(&z[0], &load[0], &x[0], &w[0], &aw[0], n, kc, ld)
}

// absMaxBlock returns max_i |v[i]| over the prefix of v the packed kernel
// covers (a multiple of 8 elements) and that prefix's length.
func absMaxBlock(v []float32) (float32, int) {
	n := len(v) &^ 7
	if !useAVX2 || n == 0 {
		return 0, 0
	}
	return absMaxAVX2(&v[0], n), n
}

// quantizeBlock runs QuantizeUnitInto's packed kernel over a prefix of src
// (a multiple of 8 elements) and returns its length.
func quantizeBlock(dst, src []float32, scale, half, inv float32) int {
	n := len(src) &^ 7
	if !useAVX2 || n == 0 {
		return 0
	}
	_ = dst[len(src)-1]
	quantizeAVX2(&dst[0], &src[0], n, scale, half, inv)
	return n
}
