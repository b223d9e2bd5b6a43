//go:build !amd64

package tensor

// Without an assembly kernel every entry point runs its portable twin.

const useExp = false

func expBlock(dst, src []float64) int { return 0 }

func siluBlock(v []float32) int { return 0 }

func attnSoftmaxBlock(s []float32, n, ld int, mx []float32, sums []float64, h, i int, sum float64) (int, int, float64) {
	return h, i, sum
}

func attnScores(d0, d1, q0, q1, k []float32, ld int, scale, mx0, mx1 float32) (float32, float32) {
	return attnScoresPair(d0, d1, q0, q1, k, ld, scale, mx0, mx1)
}

func attnValues(o0, o1, w0, w1, v []float32, ld int, inv0, inv1 float32) {
	attnValuesPair(o0, o1, w0, w1, v, ld, inv0, inv1)
}
