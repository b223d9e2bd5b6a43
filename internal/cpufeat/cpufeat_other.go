//go:build !amd64 || purego

package cpufeat

// hasAVX2 is false where no AVX2 kernel is built, and under purego.
func hasAVX2() bool { return false }

// hasFMA is false where no packed exp is built, and under purego.
func hasFMA() bool { return false }
