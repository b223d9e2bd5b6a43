package tensor

import "math"

// Portable twins of the attention and SiLU kernels in attn_amd64.s: the
// scalar loops those kernels must match bit for bit, and the kernels
// themselves wherever those do not run. Products are rounded explicitly, as
// in kernel_generic.go, so no compiler fuses them into an FMA.

// expGeneric is the scalar definition of ExpInto.
func expGeneric(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = math.Exp(x)
	}
}

// siluGeneric is the scalar definition of SiLUInPlace.
func siluGeneric(v []float32) {
	for i, x := range v {
		v[i] = float32(float64(x) / (1 + math.Exp(-float64(x))))
	}
}

// softmaxExpGeneric is the scalar definition of one row of AttnSoftmax,
// adding to sum.
func softmaxExpGeneric(s []float32, mx float32, sum float64) float64 {
	for t, x := range s {
		e := float32(math.Exp(float64(x - mx)))
		s[t] = e
		sum += float64(e)
	}
	return sum
}

// attnSoftmaxGeneric is the scalar definition of AttnSoftmax.
func attnSoftmaxGeneric(s []float32, n, ld int, mx []float32, sums []float64) {
	for h, m := range mx {
		sums[h] = softmaxExpGeneric(s[h*ld:][:n], m, 0)
	}
}

// attnScoresGeneric is the scalar definition of AttnScores for one head.
func attnScoresGeneric(d, q, k []float32, ld int, scale, mx float32) float32 {
	for t := range d {
		var sum float32
		for c, qv := range q {
			sum += float32(qv * k[c*ld+t])
		}
		sum *= scale
		d[t] = sum
		if sum > mx {
			mx = sum
		}
	}
	return mx
}

// attnValuesGeneric is the scalar definition of AttnValues for one head.
func attnValuesGeneric(o, w, v []float32, ld int, inv float32) {
	for t, wt := range w {
		wn := wt * inv
		row := v[t*ld:][:len(o)]
		for c := range o {
			o[c] += float32(wn * row[c])
		}
	}
}

// attnScoresPair runs attnScoresGeneric for one head, or for two.
func attnScoresPair(d0, d1, q0, q1, k []float32, ld int, scale, mx0, mx1 float32) (float32, float32) {
	mx0 = attnScoresGeneric(d0, q0, k, ld, scale, mx0)
	if q1 != nil {
		mx1 = attnScoresGeneric(d1, q1, k, ld, scale, mx1)
	}
	return mx0, mx1
}

// attnValuesPair runs attnValuesGeneric for one head, or for two.
func attnValuesPair(o0, o1, w0, w1, v []float32, ld int, inv0, inv1 float32) {
	attnValuesGeneric(o0, w0, v, ld, inv0)
	if w1 != nil {
		attnValuesGeneric(o1, w1, v, ld, inv1)
	}
}
