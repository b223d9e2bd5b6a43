package rng

// boxMullerSSE2 is the SSE2 Box-Muller kernel in boxmuller_amd64.s: it
// replaces n (even) uniform pairs (u[k], v[k]) by their normals, two pairs
// per packed step, each lane bit-identical to boxMuller.
//
//go:noescape
func boxMullerSSE2(u, v *float64, n int)

// boxMullerBlock replaces each uniform pair (u[k], v[k]) by its Box-Muller
// pair boxMuller(u[k], v[k]). len(u) = len(v) must be even. The result is
// bit-identical to boxMullerGeneric.
func boxMullerBlock(u, v []float64) {
	n := len(u)
	if n == 0 {
		return
	}
	if n&1 != 0 || len(v) != n {
		panic("rng: boxMullerBlock needs two equal, even-length slices")
	}
	boxMullerSSE2(&u[0], &v[0], n)
}
