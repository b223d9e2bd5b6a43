//go:build !amd64

package tensor

// accumQuad is accumQuadGeneric where no assembly kernel exists.
func accumQuad(dst, r0, r1, r2, r3 []float32, x0, x1, x2, x3 float32) {
	accumQuadGeneric(dst, r0, r1, r2, r3, x0, x1, x2, x3)
}
