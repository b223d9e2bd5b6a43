//go:build amd64

package rng

import "nora/internal/cpufeat"

// useAVX2 selects the AVX2 kernels of boxmuller_amd64.s. It is fixed at
// start-up by the shared CPUID probe, as internal/tensor's is: without AVX2
// every kernel below runs its portable twin, with the same bits.
var useAVX2 = cpufeat.AVX2

// boxMullerAVX2 replaces n (a multiple of 4) uniform pairs (u[k], v[k]) by
// their normals, four pairs per packed step, each lane bit-identical to
// boxMuller.
//
//go:noescape
func boxMullerAVX2(u, v *float64, n int)

//go:noescape
func scalePairsAVX2(d *float32, c, s *float64, n int, mu, sigma float32)

//go:noescape
func addPairsAVX2(d *float32, c, s *float64, n int, sigma float32)

// boxMullerBlock replaces each uniform pair (u[k], v[k]) by its Box-Muller
// pair boxMuller(u[k], v[k]). len(u) = len(v) must be a multiple of 4. The
// result is bit-identical to boxMullerGeneric.
func boxMullerBlock(u, v []float64) {
	n := len(u)
	if n&3 != 0 || len(v) != n {
		panic("rng: boxMullerBlock needs two equal slices of a multiple of 4")
	}
	if !useAVX2 {
		boxMullerGeneric(u, v)
		return
	}
	if n > 0 {
		boxMullerAVX2(&u[0], &v[0], n)
	}
}

// scalePairs sets d[2k] = mu + sigma·float32(c[k]) and d[2k+1] =
// mu + sigma·float32(s[k]) for k < len(c); see scalePairsGeneric.
func scalePairs(d []float32, c, s []float64, mu, sigma float32) {
	n := 0
	if useAVX2 {
		n = len(c) &^ 3
	}
	if n > 0 {
		_, _ = d[2*len(c)-1], s[len(c)-1]
		scalePairsAVX2(&d[0], &c[0], &s[0], n, mu, sigma)
	}
	scalePairsGeneric(d[2*n:], c[n:], s[n:], mu, sigma)
}

// addPairs adds sigma·float32(c[k]) to d[2k] and sigma·float32(s[k]) to
// d[2k+1] for k < len(c); see addPairsGeneric.
func addPairs(d []float32, c, s []float64, sigma float32) {
	n := 0
	if useAVX2 {
		n = len(c) &^ 3
	}
	if n > 0 {
		_, _ = d[2*len(c)-1], s[len(c)-1]
		addPairsAVX2(&d[0], &c[0], &s[0], n, sigma)
	}
	addPairsGeneric(d[2*n:], c[n:], s[n:], sigma)
}
