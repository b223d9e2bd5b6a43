//go:build amd64

package tensor

import "nora/internal/cpufeat"

// useAVX2 selects the AVX2 kernels of kernel_amd64.s. It is fixed at
// start-up by the shared CPUID probe: without AVX2 (or an OS that does not
// save the YMM state) every kernel below runs its portable twin instead.
// Both paths give identical bits; the flag only decides speed.
var useAVX2 = cpufeat.AVX2

//go:noescape
func macPanelAVX2(dst, x, b *float32, n, kc, ld int)

//go:noescape
func macAbsPanelAVX2(z, load, x, w, aw *float32, n, kc, ld int)

//go:noescape
func absMaxAVX2(v *float32, n int) float32

//go:noescape
func quantizeAVX2(dst, src *float32, n int, scale, half, inv float32)

//go:noescape
func adcAVX2(z *float32, n int, limit, bound, half, inv float32) bool

//go:noescape
func irDropAVX2(z, load *float32, n int, drop, invRows float32)

//go:noescape
func rescaleAddAVX2(dst, c, z *float32, n int, coef, alpha, drift float32)

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

// adcBlock runs ADCInPlace's packed kernel over a prefix of z (a multiple
// of 8 elements) and returns its length and whether it saturated.
func adcBlock(z []float32, limit, bound, half, inv float32) (int, bool) {
	n := len(z) &^ 7
	if !useAVX2 || n == 0 {
		return 0, false
	}
	return n, adcAVX2(&z[0], n, limit, bound, half, inv)
}

// irDropBlock runs IRDropInPlace's packed kernel over a prefix of z (a
// multiple of 8 elements) and returns its length.
func irDropBlock(z, load []float32, drop, invRows float32) int {
	n := len(z) &^ 7
	if !useAVX2 || n == 0 {
		return 0
	}
	_ = load[len(z)-1]
	irDropAVX2(&z[0], &load[0], n, drop, invRows)
	return n
}

// rescaleAddBlock runs RescaleAddInto's packed kernel over a prefix of dst
// (a multiple of 8 elements) and returns its length.
func rescaleAddBlock(dst, c, z []float32, coef, alpha, drift float32) int {
	n := len(dst) &^ 7
	if !useAVX2 || n == 0 {
		return 0
	}
	_, _ = c[len(dst)-1], z[len(dst)-1]
	rescaleAddAVX2(&dst[0], &c[0], &z[0], n, coef, alpha, drift)
	return n
}
