//go:build !amd64

package rng

// Without an assembly kernel every entry point runs its portable twin.

func boxMullerBlock(u, v []float64) { boxMullerGeneric(u, v) }

func scalePairs(d []float32, c, s []float64, mu, sigma float32) {
	scalePairsGeneric(d, c, s, mu, sigma)
}

func addPairs(d []float32, c, s []float64, sigma float32) { addPairsGeneric(d, c, s, sigma) }
