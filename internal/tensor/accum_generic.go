package tensor

// accumQuadGeneric folds four b-rows into dst: each dst element accumulates
// its four addends in strictly increasing k order with one load/store of
// dst per group. It is the portable twin of the SSE2 kernel in
// accum_amd64.s — the definition accumQuad must match bit for bit — and
// accumQuad itself where no assembly kernel exists.
func accumQuadGeneric(dst, r0, r1, r2, r3 []float32, x0, x1, x2, x3 float32) {
	r0 = r0[:len(dst)]
	r1 = r1[:len(dst)]
	r2 = r2[:len(dst)]
	r3 = r3[:len(dst)]
	for j, d := range dst {
		d += x0 * r0[j]
		d += x1 * r1[j]
		d += x2 * r2[j]
		d += x3 * r3[j]
		dst[j] = d
	}
}
