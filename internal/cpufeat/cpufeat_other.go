//go:build !amd64

package cpufeat

// hasAVX2 is false where no AVX2 kernel is built.
func hasAVX2() bool { return false }
