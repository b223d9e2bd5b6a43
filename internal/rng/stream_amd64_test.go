//go:build amd64

package rng

import "testing"

// TestStreamV1UnchangedPortable runs TestStreamV1Unchanged's digest with
// the AVX2 kernels switched off, so AVX2 machines also pin the portable
// twins (boxMullerGeneric, scalePairsGeneric, addPairsGeneric) that other
// platforms run.
func TestStreamV1UnchangedPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2: TestStreamV1Unchanged already runs the twins")
	}
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	checkStreamV1Digest(t)
}
