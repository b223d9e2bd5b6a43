//go:build amd64

package tensor

import (
	"math"
	"testing"

	"nora/internal/cpufeat"
	"nora/internal/rng"
)

// TestKernelDispatchBothWays runs every public entry point of the panel
// kernels with the AVX2 kernels and with the portable twins, by flipping
// the start-up dispatch flag, at the zoo's tile shapes: the square and
// 2×-wide/2×-tall blocks of the 64- and 96-wide models and llama3-c's
// 96×48 k/v projection. Sparse inputs with an all-zero row, at T = 1, 5 and
// 64 (the last crosses MatMul's parallel threshold), must give identical
// bits both ways.
func TestKernelDispatchBothWays(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("CPU without AVX2: only the portable kernels can run")
	}
	defer func(v bool) { useAVX2 = v }(useAVX2)
	r := rng.New(0xD15)
	shapes := [][2]int{{64, 64}, {64, 128}, {128, 64}, {96, 96}, {96, 192}, {192, 96}, {96, 48}}
	for _, sh := range shapes {
		k, n := sh[0], sh[1]
		b := edgeMatrix(r, k, n, 1)
		absB := Apply(b, func(v float32) float32 {
			if v < 0 {
				return -v
			}
			return v
		})
		for _, T := range []int{1, 5, 64} {
			a := edgeMatrix(r, T, k, 0.3)
			if T > 1 {
				clear(a.Row(1))
			}
			run := func(avx bool) []*Matrix {
				useAVX2 = avx
				into, serial := New(T, n), New(T, n)
				MatMulInto(into, a, b)
				MatMulSerialInto(serial, a, b)
				z, load := New(T, n), New(T, n)
				MatMulAbsSerialInto(z, load, a, b, absB)
				vec, vz, vl := New(1, n), New(1, n), New(1, n)
				VecMulInto(vec.Data, a.Row(0), b)
				VecMulAbsInto(vz.Data, vl.Data, a.Row(0), b, absB)
				return []*Matrix{MatMul(a, b), into, serial, z, load, vec, vz, vl}
			}
			names := []string{"MatMul", "MatMulInto", "MatMulSerialInto", "MatMulAbsSerialInto z",
				"MatMulAbsSerialInto load", "VecMulInto", "VecMulAbsInto z", "VecMulAbsInto load"}
			fast, twin := run(true), run(false)
			for i, name := range names {
				bitsEqual(t, name, fast[i], twin[i])
			}
		}
	}
}

// TestPackedExpChosen holds the start-up self-check to its purpose. On a
// CPU with AVX2 and FMA whose math.Exp takes archExp's FMA path (the path
// the replay computes) the packed exp must be chosen, so a broken kernel
// cannot hide behind the self-check and skip its tests; and the probe must
// hold inputs on which the SSE path rounds differently, so a math.Exp on
// that path (GODEBUG=cpu.fma=off) can never pass it.
func TestPackedExpChosen(t *testing.T) {
	splits := 0
	fmaPath := true
	for _, x := range expProbe {
		if math.Float64bits(expFMAReplay(x)) != math.Float64bits(math.Exp(x)) {
			fmaPath = false
		}
		if expSSEReplay(x) != expFMAReplay(x) {
			splits++
		}
	}
	if splits < 4 {
		t.Fatalf("only %d probe inputs tell math.Exp's SSE path from its FMA path", splits)
	}
	if cpufeat.FMA && fmaPath && !useExp {
		t.Fatal("math.Exp takes the FMA path on this AVX2+FMA CPU, but the packed exp failed its start-up probe")
	}
	if useExp && !fmaPath {
		t.Fatal("the packed exp is on although math.Exp is not the FMA replay on the probe")
	}
}
