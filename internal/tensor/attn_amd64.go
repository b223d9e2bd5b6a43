//go:build amd64

package tensor

import (
	"math"

	"nora/internal/cpufeat"
)

// useExp selects the packed exp of attn_amd64.s (ExpInto, SiLUInPlace,
// AttnSoftmax). It replays the FMA path of math.Exp, which the standard
// library takes only when it finds AVX and FMA itself; a GODEBUG setting
// such as cpu.fma=off moves math.Exp to its SSE path, whose bits differ. So
// the packed exp runs only if the CPU has AVX2 and FMA and it reproduces
// math.Exp on expProbe at start-up; otherwise math.Exp runs.
var useExp = cpufeat.FMA && expReplaysMath()

// expProbe holds inputs on which math.Exp's FMA and SSE paths round
// differently (the first nine, spread over the softmax and SiLU ranges and
// beyond), the ends of the packed range and zero.
var expProbe = [...]float64{
	-0.8460009098052979, -2.228412628173828, -10.815293312072754, -25.15180778503418,
	-266.6841125488281, 0.09433991461992264, 1.072381615638733, 5.2095627784729,
	283.31964111328125, -708, 709, 0,
}

// expReplaysMath reports whether the packed exp gives math.Exp's bits on
// every input of expProbe.
func expReplaysMath() bool {
	var got [len(expProbe)]float64
	if expAVX2(&got[0], &expProbe[0], len(expProbe)) != len(expProbe) {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

//go:noescape
func expAVX2(dst, src *float64, n int) int

//go:noescape
func siluAVX2(v *float32, n int) int

//go:noescape
func attnSoftmaxAVX2(s *float32, n, ld, rows int, mx *float32, sums *float64, h, i int, sum float64) (int, int, float64)

//go:noescape
func scoresAVX2(d0, d1, q0, q1, k *float32, n, dh, ld int, scale, mx0, mx1 float32) (float32, float32)

//go:noescape
func valuesAVX2(o0, o1, w0, w1, v *float32, n, dh, ld int, inv0, inv1 float32)

// expBlock runs ExpInto's packed kernel over a prefix of src and returns
// its length: whole blocks of four up to the first block with an input
// outside [−708, 709].
func expBlock(dst, src []float64) int {
	if !useExp || len(src) < 4 {
		return 0
	}
	_ = dst[len(src)-1]
	return expAVX2(&dst[0], &src[0], len(src))
}

// siluBlock runs SiLUInPlace's packed kernel over a prefix of v, as
// expBlock does, and returns its length.
func siluBlock(v []float32) int {
	if !useExp || len(v) < 4 {
		return 0
	}
	return siluAVX2(&v[0], len(v))
}

// attnSoftmaxBlock runs AttnSoftmax's packed kernel from row h, position
// i and partial sum sum up to the first block with a difference outside
// [−708, 709], and returns where it stopped (see attnSoftmaxAVX2); without
// the packed exp it returns at once.
func attnSoftmaxBlock(s []float32, n, ld int, mx []float32, sums []float64, h, i int, sum float64) (int, int, float64) {
	rows := len(mx)
	if !useExp || h == rows || n == 0 {
		return h, i, sum
	}
	_, _ = sums[rows-1], s[(rows-1)*ld+n-1]
	return attnSoftmaxAVX2(&s[0], n, ld, rows, &mx[0], &sums[0], h, i, sum)
}

// attnScores is AttnScores on the packed kernel when AVX2 is present.
func attnScores(d0, d1, q0, q1, k []float32, ld int, scale, mx0, mx1 float32) (float32, float32) {
	n, dh := len(d0), len(q0)
	if !useAVX2 || n == 0 || dh == 0 {
		return attnScoresPair(d0, d1, q0, q1, k, ld, scale, mx0, mx1)
	}
	_ = k[(dh-1)*ld+n-1]
	if q1 == nil {
		mx0, _ = scoresAVX2(&d0[0], nil, &q0[0], nil, &k[0], n, dh, ld, scale, mx0, mx1)
		return mx0, mx1
	}
	_, _ = d1[n-1], q1[dh-1]
	return scoresAVX2(&d0[0], &d1[0], &q0[0], &q1[0], &k[0], n, dh, ld, scale, mx0, mx1)
}

// attnValues is AttnValues on the packed kernel when AVX2 is present.
func attnValues(o0, o1, w0, w1, v []float32, ld int, inv0, inv1 float32) {
	n, dh := len(w0), len(o0)
	if !useAVX2 || n == 0 || dh == 0 {
		attnValuesPair(o0, o1, w0, w1, v, ld, inv0, inv1)
		return
	}
	_ = v[(n-1)*ld+dh-1]
	if w1 == nil {
		valuesAVX2(&o0[0], nil, &w0[0], nil, &v[0], n, dh, ld, inv0, inv1)
		return
	}
	_, _ = o1[dh-1], w1[n-1]
	valuesAVX2(&o0[0], &o1[0], &w0[0], &w1[0], &v[0], n, dh, ld, inv0, inv1)
}
