package tensor

// Entry points of the digital attention step (scores, softmax numerators,
// weighted value sums) and of the exp they and the SiLU share. Each runs a
// packed kernel where the CPU has one (attn_amd64.s) and its scalar twin
// (attn_generic.go) elsewhere, with the same bits.

// ExpInto sets dst[i] = math.Exp(src[i]) for every i < len(src); len(dst)
// must be at least len(src).
func ExpInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i := 0; i < len(src); {
		i += expBlock(dst[i:], src[i:])
		// Whatever the packed kernel left next, a block with an input out of
		// its range or a tail of fewer than four, runs math.Exp.
		end := min(i+4, len(src))
		expGeneric(dst[i:end], src[i:end])
		i = end
	}
}

// SiLUInPlace replaces every x of v by x·sigmoid(x), evaluated in float64
// as float32(float64(x) / (1 + math.Exp(−float64(x)))).
func SiLUInPlace(v []float32) {
	for i := 0; i < len(v); {
		i += siluBlock(v[i:])
		end := min(i+4, len(v))
		siluGeneric(v[i:end])
		i = end
	}
}

// AttnSoftmax turns len(mx) rows of attention scores into softmax
// numerators and their sums. Row h holds n scores at s[h·ld:]; each score x
// becomes float32(math.Exp(float64(x − mx[h]))), and sums[h] becomes the
// sum of the row's numerators, taken in float64 in ascending position.
func AttnSoftmax(s []float32, n, ld int, mx []float32, sums []float64) {
	sums = sums[:len(mx)]
	h, i, sum := 0, 0, 0.0
	for h < len(mx) {
		h, i, sum = attnSoftmaxBlock(s, n, ld, mx, sums, h, i, sum)
		if h == len(mx) {
			return
		}
		// The block at (h, i) holds a difference out of the packed range, or
		// the packed exp is off: it runs math.Exp.
		end := min(i+4, n)
		sum = softmaxExpGeneric(s[h*ld+i:h*ld+end], mx[h], sum)
		if i = end; i == n {
			sums[h] = sum
			h, i, sum = h+1, 0, 0
		}
	}
}

// AttnScores computes the scaled attention scores of one query head q0, or
// of two query heads q0 and q1 that share one key head, against len(d0)
// cached key positions stored position-minor: key column c of position t
// at k[c·ld+t], for c < len(q0). For each head d[t] =
// (Σ_c float32(q[c]·k[c·ld+t]))·scale, the sum taken over ascending c from
// +0, and the head's running max becomes the largest of mx and every d[t],
// a NaN score never raising it, as `if d[t] > mx { mx = d[t] }` does; only
// the sign of a zero max may differ from that loop's. Pass d1 and q1 nil
// for one head; mx1 then comes back unchanged.
func AttnScores(d0, d1, q0, q1, k []float32, ld int, scale, mx0, mx1 float32) (float32, float32) {
	return attnScores(d0, d1, q0, q1, k, ld, scale, mx0, mx1)
}

// AttnValues adds the weighted value rows of len(w0) cached positions,
// whose rows start ld floats apart in v, to the output of one head o0, or
// of two heads o0 and o1 that share one value head: o[c] +=
// float32(float32(w[t]·inv)·v[t·ld+c]) for c < len(o0), summed over
// ascending t. Pass o1 and w1 nil for one head.
func AttnValues(o0, o1, w0, w1, v []float32, ld int, inv0, inv1 float32) {
	attnValues(o0, o1, w0, w1, v, ld, inv0, inv1)
}
