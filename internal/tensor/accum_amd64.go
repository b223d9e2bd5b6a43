//go:build amd64

package tensor

// accumQuadAsm is the SSE2 inner kernel of accumRows: for j in [0, n),
// dst[j] += x0·r0[j]; dst[j] += x1·r1[j]; dst[j] += x2·r2[j];
// dst[j] += x3·r3[j] — four packed lanes at a time, scalar tail. Packed
// single-precision multiply/add rounds exactly like the scalar ops and
// every dst element keeps its strictly-increasing-k accumulation chain, so
// the result is bit-identical to the generic loop.
//
//go:noescape
func accumQuadAsm(dst, r0, r1, r2, r3 *float32, n int, x0, x1, x2, x3 float32)

// accumQuad folds four b-rows into dst with one load/store of dst per
// element group; accumQuadGeneric is the portable definition.
func accumQuad(dst, r0, r1, r2, r3 []float32, x0, x1, x2, x3 float32) {
	if len(dst) == 0 {
		return
	}
	accumQuadAsm(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], len(dst), x0, x1, x2, x3)
}
