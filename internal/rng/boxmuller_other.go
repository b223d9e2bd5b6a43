//go:build !amd64

package rng

// boxMullerBlock is boxMullerGeneric where no assembly kernel exists.
func boxMullerBlock(u, v []float64) { boxMullerGeneric(u, v) }
